//! Experiment harness for the UDT paper reproduction.
//!
//! Every table and figure of the paper's evaluation maps to a module in
//! [`experiments`], returning a [`report::Report`] with the regenerated
//! series and a set of `SHAPE` assertions capturing the paper's qualitative
//! claims. One binary runs them: `bench exp <id>…` prints single reports,
//! `bench exp all` runs [`experiments::TABLE`] and emits EXPERIMENTS.md-ready
//! markdown.
//!
//! Scaling policy: simulations run at the paper's parameters where wall
//! clock allows; where it does not (e.g. Figure 3's 400 flows × 1 Gb/s ×
//! 100 s) the report states the scaled parameters used. Real-socket
//! experiments run through `linkemu` at rates a loopback relay sustains
//! comfortably; shapes, not absolute Mb/s, are the reproduction target.

pub mod ab;
pub mod cpu;
pub mod instrshot;
pub mod perfjson;
pub mod realnet;
pub mod regress;
pub mod report;
pub mod scenarios;

pub mod experiments {
    //! One module per paper artifact, and the table that runs them.

    use std::path::PathBuf;

    use crate::report::Report;

    /// What `bench exp` passes to every runner.
    #[derive(Debug, Default)]
    pub struct Opts {
        /// `--quick`: the CI-sized variant, where an experiment has one.
        pub quick: bool,
        /// `--trace F`: export the event timeline as JSONL instead of the
        /// report (fig7).
        pub trace: Option<PathBuf>,
        /// `--keep D`: keep the flight-recorder dumps in `D` (flightrec).
        pub keep: Option<PathBuf>,
    }

    /// Runs one experiment.
    pub type Runner = fn(&Opts) -> Report;

    /// Declares each experiment's module and its [`TABLE`] entry from one
    /// list, so a module cannot exist without being runnable.
    macro_rules! experiments {
        ($($id:ident => $run:expr,)*) => {
            $(pub mod $id;)*

            /// Every experiment, in paper order: the one registry `bench
            /// exp` resolves ids against and `bench exp all` walks.
            pub const TABLE: &[(&str, Runner)] = &[$((stringify!($id), $run)),*];
        };
    }

    experiments! {
        fig1 => |_| fig1::run(),
        fig2 => |_| fig2::run(),
        fig3 => |_| fig3::run(),
        fig4 => |_| fig4::run(),
        fig5 => |_| fig5::run(),
        fig6 => |_| fig6::run(),
        fig7 => |o| match &o.trace {
            Some(path) => fig7::run_traced(path),
            None => fig7::run(),
        },
        fig8 => |_| fig8::run(),
        fig9 => |_| fig9::run(),
        tbl1 => |_| tbl1::run(),
        fig11 => |_| fig11::run(),
        fig12 => |_| fig12::run(),
        fig13 => |_| fig13::run(),
        fig14 => |_| fig14::run(),
        fig15 => |_| fig15::run(),
        tbl2 => |_| tbl2::run(),
        tbl3 => |o| if o.quick { tbl3::run_quick() } else { tbl3::run() },
        abl_syn => |_| abl_syn::run(),
        abl_bwe => |_| abl_bwe::run(),
        abl_naks => |_| abl_naks::run(),
        abl_sabul => |_| abl_sabul::run(),
        abl_pacing => |_| abl_pacing::run(),
        cmp_protocols => |_| cmp_protocols::run(),
        chaos => |_| chaos::run(),
        multibottleneck => |_| multibottleneck::run(),
        trace_overhead => |o| trace_overhead::run(o.quick),
        metrics_overhead => |o| metrics_overhead::run(o.quick),
        datapath => |o| datapath::run(o.quick),
        flightrec => |o| match &o.keep {
            Some(dir) => flightrec::run_in(dir),
            None => flightrec::run(),
        },
        multipath => |o| multipath::run(o.quick),
        soak => |o| soak::run(o.quick),
        auth => |o| auth::run(o.quick),
    }
}
