//! Experiment reports and SHAPE assertions.

/// One qualitative claim from the paper, checked against our measurement.
#[derive(Debug, Clone)]
pub struct Shape {
    /// What the paper claims (short).
    pub claim: String,
    /// Did our reproduction exhibit it?
    pub ok: bool,
    /// The measured evidence.
    pub detail: String,
    /// Whether a failure fails the run. A recorded-only check (see
    /// [`Report::measured`]) prints and renders like any other but is
    /// gated elsewhere.
    pub gates: bool,
}

/// The outcome of one experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// Artifact id, e.g. "fig2".
    pub id: &'static str,
    /// Paper artifact title.
    pub title: &'static str,
    /// Parameters used (including any scaling versus the paper).
    pub setup: String,
    /// The regenerated rows/series, ready to print.
    pub rows: Vec<String>,
    /// Shape assertions.
    pub shapes: Vec<Shape>,
}

impl Report {
    /// New empty report.
    pub fn new(id: &'static str, title: &'static str, setup: impl Into<String>) -> Report {
        Report {
            id,
            title,
            setup: setup.into(),
            rows: Vec::new(),
            shapes: Vec::new(),
        }
    }

    /// Add a data row.
    pub fn row(&mut self, s: impl Into<String>) {
        self.rows.push(s.into());
    }

    /// Add a shape assertion.
    pub fn shape(&mut self, claim: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.shapes.push(Shape {
            claim: claim.into(),
            ok,
            detail: detail.into(),
            gates: true,
        });
    }

    /// Record a bound on a noisy measurement: reported as holding or not,
    /// but never failing the run — its one CI gate is the `bench regress`
    /// row that compares the number against the committed baseline.
    pub fn measured(&mut self, claim: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.shape(claim, ok, detail);
        if let Some(s) = self.shapes.last_mut() {
            s.gates = false;
        }
    }

    /// All gating shapes hold?
    pub fn all_ok(&self) -> bool {
        self.shapes.iter().all(|s| s.ok || !s.gates)
    }

    /// Print to stdout in the harness format.
    pub fn print(&self) {
        println!("== {} — {} ==", self.id, self.title);
        println!("setup: {}", self.setup);
        for r in &self.rows {
            println!("{r}");
        }
        for s in &self.shapes {
            println!(
                "SHAPE: [{}] {} — {}{}",
                if s.ok { "PASS" } else { "FAIL" },
                s.claim,
                s.detail,
                if s.gates {
                    ""
                } else {
                    " [recorded; gate: bench regress]"
                }
            );
        }
        println!();
    }

    /// Render as a markdown section for EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n*Setup:* {}\n\n```\n", self.id, self.title, self.setup);
        for r in &self.rows {
            out.push_str(r);
            out.push('\n');
        }
        out.push_str("```\n\n");
        for s in &self.shapes {
            out.push_str(&format!(
                "- **{}** {} — {}\n",
                if s.ok { "HOLDS:" } else { "DIVERGES:" },
                s.claim,
                s.detail
            ));
        }
        out.push('\n');
        out
    }
}

/// Format bits/s as Mb/s with sensible precision.
pub fn mbps(bps: f64) -> String {
    format!("{:.1}", bps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("figX", "Test", "none");
        r.row("a b c");
        r.shape("x > y", true, "x=2 y=1");
        r.measured("noisy < bound", false, "recorded only");
        assert!(r.all_ok(), "a recorded bound never fails the run");
        r.shape("y > z", false, "y=1 z=3");
        assert!(!r.all_ok());
        let md = r.to_markdown();
        assert!(md.contains("HOLDS:"));
        assert!(md.contains("DIVERGES:"));
        assert!(md.contains("a b c"));
    }

    #[test]
    fn mbps_formats() {
        assert_eq!(mbps(94_000_000.0), "94.0");
    }
}
