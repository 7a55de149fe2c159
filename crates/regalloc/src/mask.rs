//! Dense register numbering and fixed-width register masks.
//!
//! Registers are numbered file-major (file 0's registers first, then file
//! 1's, ...), so ascending bit order in a mask is exactly the
//! `(file, index)` order of [`RegRef`] — the order the allocator has
//! always broken ties in. A mask is a slice of `words` 64-bit words; a
//! [`MaskTable`] packs one mask per row into a single allocation.

use mcc_machine::{FileId, MachineDesc, RegClass, RegRef};

/// The machine's registers under dense numbering.
#[derive(Debug)]
pub(crate) struct RegSpace {
    /// First dense index of each register file, then the register count.
    base: Vec<usize>,
    /// Words per mask.
    pub words: usize,
}

impl RegSpace {
    pub fn new(m: &MachineDesc) -> Self {
        let mut base = Vec::with_capacity(m.files.len() + 1);
        let mut next = 0;
        for file in &m.files {
            base.push(next);
            next += file.count as usize;
        }
        base.push(next);
        RegSpace {
            base,
            words: next.div_ceil(64).max(1),
        }
    }

    /// Dense index of `r`.
    pub fn index(&self, r: RegRef) -> usize {
        debug_assert!(
            self.base.len() > r.file.index() + 1,
            "register {r} has no file"
        );
        self.base[r.file.index()] + r.index as usize
    }

    /// The register with dense index `i`.
    pub fn reg(&self, i: usize) -> RegRef {
        let file = self.base.partition_point(|&b| b <= i) - 1;
        RegRef::new(FileId(file as u16), (i - self.base[file]) as u16)
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.base[self.base.len() - 1]
    }
}

pub(crate) fn set(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// Sets the bits of every member of `class`.
pub(crate) fn set_class(mask: &mut [u64], space: &RegSpace, class: &RegClass) {
    for &(file, lo, n) in &class.ranges {
        let start = space.index(RegRef::new(file, lo));
        let end = start + n as usize;
        let mut i = start;
        while i < end {
            let bits = (end - i).min(64 - i % 64);
            mask[i / 64] |= (u64::MAX >> (64 - bits)) << (i % 64);
            i += bits;
        }
    }
}

pub(crate) fn contains(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

pub(crate) fn and_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

pub(crate) fn count(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// Set bits in ascending order.
pub(crate) fn ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                wi * 64 + b
            })
        })
    })
}

/// One mask per row, `words` words each, in one allocation.
#[derive(Debug, Clone)]
pub(crate) struct MaskTable {
    words: usize,
    bits: Vec<u64>,
}

impl MaskTable {
    /// `rows` masks of `words` words, every bit set to `fill`.
    pub fn new(words: usize, rows: usize, fill: bool) -> Self {
        let w = if fill { u64::MAX } else { 0 };
        MaskTable {
            words,
            bits: vec![w; words * rows],
        }
    }

    /// Appends an empty row and returns its index.
    pub fn push_empty(&mut self) -> usize {
        self.bits.resize(self.bits.len() + self.words, 0);
        self.bits.len() / self.words - 1
    }

    pub fn words(&self) -> usize {
        self.words
    }

    pub fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Row `dst` &= row `src` of `other`.
    pub fn and_row(&mut self, dst: usize, other: &MaskTable, src: usize) {
        let w = self.words;
        and_into(&mut self.bits[dst * w..(dst + 1) * w], other.row(src));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::{hm1, wm64};

    #[test]
    fn dense_order_is_file_major() {
        let m = hm1();
        let s = RegSpace::new(&m);
        let mut prev = None;
        for i in 0..s.len() {
            let r = s.reg(i);
            assert_eq!(s.index(r), i);
            assert!(prev < Some(r), "ascending index is ascending RegRef");
            prev = Some(r);
        }
    }

    #[test]
    fn wm64_needs_more_than_four_words() {
        // 256 general registers plus MAR, MBR and the flags.
        let s = RegSpace::new(&wm64());
        assert_eq!(s.len(), 259);
        assert_eq!(s.words, 5);
    }

    #[test]
    fn class_ranges_set_word_spans() {
        let m = wm64();
        let s = RegSpace::new(&m);
        for c in &m.classes {
            let mut got = vec![0; s.words];
            set_class(&mut got, &s, c);
            let mut want = vec![0; s.words];
            for r in c.members() {
                set(&mut want, s.index(r));
            }
            assert_eq!(got, want, "class {}", c.name);
        }
    }

    #[test]
    fn ones_ascend_across_words() {
        let mut m = vec![0u64; 3];
        for i in [130, 0, 63, 64, 7] {
            set(&mut m, i);
        }
        assert_eq!(ones(&m).collect::<Vec<_>>(), vec![0, 7, 63, 64, 130]);
        assert_eq!(count(&m), 5);
        assert!(contains(&m, 64) && !contains(&m, 65));
    }
}
