//! The server-side idempotency window: a bounded LRU keyed on
//! `(client_id, request_id)` that makes retries exactly-once.
//!
//! A client that loses a connection after the server executed its request
//! (but before the response arrived) retries the *same* `(cid, rid)` on a
//! fresh connection. The window recognises the key and replays the recorded
//! response instead of re-executing — the reconnect-and-resend path in
//! `TcpBackend::call` is safe because of this window, not in spite of it.
//!
//! Three states per key:
//!
//! * absent — first sighting, the caller executes ([`Claim::Fresh`]);
//! * in flight — a duplicate arrived while the original is still executing
//!   (the chaos proxy's duplicate-delivery fault does exactly this); the
//!   duplicate parks on a channel and receives the original's response
//!   ([`Claim::Wait`]);
//! * done — the response is recorded and replayed verbatim ([`Claim::Replay`]).
//!
//! Transient rejections (`429` rate-limited, `503` shed/draining) are **not**
//! recorded: a retry of a shed request must get a fresh chance at admission,
//! so the caller passes `record = false` and the key is forgotten.
//!
//! Responses are recorded as bare lines, whichever dialect carried the key:
//! the `@mcc1` envelope is a v1 wire encoding applied at the connection, and
//! `wrap_envelope` is deterministic in `(cid, rid, body)`, so a v1 replay is
//! byte-identical to the original answer and a v2 replay needs no unwrap.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// The caller's verdict on one `(cid, rid)` sighting.
pub enum Claim {
    /// First sighting: execute, then [`DedupWindow::resolve`].
    Fresh,
    /// Seen and finished: send this recorded response, do not execute.
    Replay(String),
    /// Seen and still executing: wait for the original's response.
    Wait(Receiver<String>),
}

enum Entry {
    Inflight(Vec<Sender<String>>),
    Done(String),
}

struct Inner {
    entries: HashMap<(String, u64), Entry>,
    /// Insertion order for eviction; may hold stale keys of unrecorded
    /// entries, skipped lazily.
    order: VecDeque<(String, u64)>,
}

/// Bounded idempotency window. All operations are O(1) amortised; eviction
/// scans past in-flight entries (rotating them to the back) with a bounded
/// number of steps.
pub struct DedupWindow {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl DedupWindow {
    /// A window remembering at most `capacity` request keys.
    pub fn new(capacity: usize) -> DedupWindow {
        DedupWindow {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Claims one `(cid, rid)` sighting.
    pub fn claim(&self, cid: &str, rid: u64) -> Claim {
        let key = (cid.to_string(), rid);
        let mut g = self.inner.lock().unwrap();
        if let Some(entry) = g.entries.get_mut(&key) {
            return match entry {
                Entry::Done(resp) => Claim::Replay(resp.clone()),
                Entry::Inflight(waiters) => {
                    let (tx, rx) = channel();
                    waiters.push(tx);
                    Claim::Wait(rx)
                }
            };
        }
        g.entries.insert(key.clone(), Entry::Inflight(Vec::new()));
        g.order.push_back(key);
        self.evict(&mut g);
        Claim::Fresh
    }

    /// Records (or forgets, when `record` is false) the response for a key
    /// previously claimed [`Claim::Fresh`], and wakes any parked duplicates
    /// with the response either way.
    pub fn resolve(&self, cid: &str, rid: u64, response: &str, record: bool) {
        let key = (cid.to_string(), rid);
        let mut g = self.inner.lock().unwrap();
        let waiters = match g.entries.get_mut(&key) {
            Some(Entry::Inflight(w)) => std::mem::take(w),
            _ => Vec::new(),
        };
        if record {
            g.entries.insert(key, Entry::Done(response.to_string()));
        } else {
            // Transient rejection: forget the key so a retry re-attempts
            // admission. The stale order slot is skipped at eviction time.
            g.entries.remove(&key);
        }
        drop(g);
        for w in waiters {
            let _ = w.send(response.to_string());
        }
    }

    /// Number of keys currently remembered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// True when no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn evict(&self, g: &mut Inner) {
        let mut scans = g.order.len();
        while g.entries.len() > self.capacity && scans > 0 {
            scans -= 1;
            let Some(key) = g.order.pop_front() else { break };
            match g.entries.get(&key) {
                // Stale slot (entry was forgotten by an unrecorded resolve).
                None => continue,
                // Never evict a request that is still executing — rotate it
                // to the back and keep scanning.
                Some(Entry::Inflight(_)) => g.order.push_back(key),
                Some(Entry::Done(_)) => {
                    g.entries.remove(&key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_returns_recorded_response_without_reexecution() {
        let w = DedupWindow::new(8);
        assert!(matches!(w.claim("c", 1), Claim::Fresh));
        w.resolve("c", 1, "resp-1\n", true);
        match w.claim("c", 1) {
            Claim::Replay(r) => assert_eq!(r, "resp-1\n"),
            _ => panic!("expected replay"),
        }
        // Replays are repeatable.
        assert!(matches!(w.claim("c", 1), Claim::Replay(_)));
    }

    #[test]
    fn distinct_request_ids_never_dedup() {
        let w = DedupWindow::new(8);
        assert!(matches!(w.claim("c", 1), Claim::Fresh));
        w.resolve("c", 1, "resp-1\n", true);
        assert!(matches!(w.claim("c", 2), Claim::Fresh), "new rid executes");
        assert!(matches!(w.claim("d", 1), Claim::Fresh), "new cid executes");
    }

    #[test]
    fn eviction_at_capacity_drops_oldest_done_entry() {
        let w = DedupWindow::new(3);
        for rid in 0..3 {
            assert!(matches!(w.claim("c", rid), Claim::Fresh));
            w.resolve("c", rid, "r\n", true);
        }
        assert_eq!(w.len(), 3);
        assert!(matches!(w.claim("c", 3), Claim::Fresh));
        w.resolve("c", 3, "r\n", true);
        assert_eq!(w.len(), 3, "window stays bounded");
        // The oldest key (rid 0) was evicted: it executes again.
        assert!(matches!(w.claim("c", 0), Claim::Fresh));
        // A newer key is still remembered.
        assert!(matches!(w.claim("c", 3), Claim::Replay(_)));
    }

    #[test]
    fn eviction_skips_inflight_entries() {
        let w = DedupWindow::new(2);
        assert!(matches!(w.claim("c", 0), Claim::Fresh)); // stays in flight
        assert!(matches!(w.claim("c", 1), Claim::Fresh));
        w.resolve("c", 1, "r\n", true);
        assert!(matches!(w.claim("c", 2), Claim::Fresh)); // forces eviction
        // rid 1 (done) was evicted, not rid 0 (in flight).
        assert!(matches!(w.claim("c", 0), Claim::Wait(_)));
        assert!(matches!(w.claim("c", 1), Claim::Fresh));
    }

    #[test]
    fn duplicate_in_flight_waits_and_gets_the_original_response() {
        let w = DedupWindow::new(8);
        assert!(matches!(w.claim("c", 7), Claim::Fresh));
        let rx = match w.claim("c", 7) {
            Claim::Wait(rx) => rx,
            _ => panic!("expected wait"),
        };
        w.resolve("c", 7, "the-answer\n", true);
        assert_eq!(rx.recv().unwrap(), "the-answer\n");
    }

    #[test]
    fn transient_rejections_are_not_recorded() {
        let w = DedupWindow::new(8);
        assert!(matches!(w.claim("c", 9), Claim::Fresh));
        w.resolve("c", 9, "shed\n", false);
        assert!(w.is_empty());
        // The retry executes afresh instead of replaying the 503.
        assert!(matches!(w.claim("c", 9), Claim::Fresh));
    }
}
