//! Cache-line padding for the scheduler's hot words.

use core::ops::Deref;

/// Pads and aligns a value to 128 bytes, so two padded values never share
/// a cache line: an atomic one core writes while another polls costs a
/// coherence round trip per line, and unrelated words on one line
/// serialize unrelated cores. 128, not 64: Intel's spatial prefetcher
/// pulls lines in pairs. `DESIGN.md` §6.2 lists who owns which line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}
