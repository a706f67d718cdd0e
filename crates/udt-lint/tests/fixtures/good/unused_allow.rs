//! The directive sits on a finding it suppresses: a narrowing cast on a
//! sequence-number span, with the reason it cannot truncate.

pub fn held_span(base_seq: u64, last_seq: u64) -> u32 {
    // udt-lint: allow(as-cast) — the span is at most the buffer capacity
    (last_seq - base_seq) as u32
}
