//! The CHUNK decoder allocates no more than the body justifies.
//!
//! A CHUNK body starts with a row count the peer chooses. The row codec
//! caps the rows it preallocates by the body's size, so a body claiming
//! `u32::MAX` rows is refused after a few small allocations instead of
//! one sized by the claim. This binary wraps the system allocator to
//! record the largest single request and pins that cap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use oodb_server::wire;
use oodb_value::{Value, ValueError};

/// The system allocator, recording the largest request it serves.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; `LARGEST` is a statistic
// and publishes no other data.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

#[test]
fn hostile_row_counts_allocate_by_the_body() {
    for nulls in [0usize, 1, 100, 10_000] {
        // `u32::MAX` rows claimed, `nulls` one-byte NULL rows present
        let mut body = u32::MAX.to_le_bytes().to_vec();
        body.resize(4 + nulls, 0);
        LARGEST.store(0, Ordering::Relaxed);
        let decoded = wire::decode_chunk(&body);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(matches!(decoded, Err(ValueError::Codec(_))), "{nulls} rows");
        // every row present takes a byte, and the row vector at most
        // doubles past them: two row slots per body byte
        let bound = 2 * body.len().max(64) * std::mem::size_of::<Value>();
        assert!(
            largest <= bound,
            "{nulls} rows: a {largest}-byte allocation for a {}-byte body",
            body.len()
        );
    }
}
