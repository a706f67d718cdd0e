//! The traced binary: the same program behind a counting allocator, so
//! allocations per packet can be reported without the untraced numbers
//! paying for the counting.

use benchmark::alloc::{AllocCounters, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc(AllocCounters::new());

fn main() -> std::process::ExitCode {
    benchmark::main_with(Some(&ALLOC.0))
}
