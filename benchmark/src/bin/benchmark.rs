//! The untraced binary: no counting allocator, no metrics hub.

fn main() -> std::process::ExitCode {
    benchmark::main_with(None)
}
