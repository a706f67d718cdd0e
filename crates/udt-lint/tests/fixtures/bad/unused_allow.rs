//! A stale escape hatch. The narrowing cast this directive excused was
//! fixed (the count is widened, not truncated), but the directive stayed
//! behind — ready to hide the next real `as-cast` finding that lands on
//! these two lines.

pub fn held_bytes(held_pkts: u32, payload: u32) -> u64 {
    // udt-lint: allow(as-cast) — product fits u32
    u64::from(held_pkts) * u64::from(payload)
}
