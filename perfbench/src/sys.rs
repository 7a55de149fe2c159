//! The few system calls the standard library does not expose.

use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sync();
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Asks the kernel to wake this thread within 1 ns of a poll timeout
/// instead of the default 50 µs slack, so due instants are kept.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Waits until one of `fds` is ready or `timeout` passes. Each entry
/// is `(fd, also wait for writability)`; returns which are readable.
pub fn poll_fds(fds: &[(i32, bool)], timeout: Option<Duration>) -> Vec<bool> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, w)| PollFd {
            fd,
            events: POLLIN | if w { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = timeout.map(|d| Timespec {
        tv_sec: d.as_secs() as i64,
        tv_nsec: i64::from(d.subsec_nanos()),
    });
    let tp = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `pfds` holds `pfds.len()` initialised pollfd structs that
    // outlive the call; `tp` is null or points at `ts`, which lives to
    // the end of this function; a null sigmask keeps the current mask.
    let n = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, tp, std::ptr::null()) };
    if n <= 0 {
        return vec![false; fds.len()];
    }
    pfds.iter().map(|p| p.revents & !POLLOUT != 0).collect()
}

/// Flushes every file system's dirty data to disk, so writeback left
/// over from earlier work does not land inside a timed phase.
pub fn sync_filesystems() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}
