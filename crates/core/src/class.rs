//! NIDS analysis classes.
//!
//! §2.1 of the paper abstracts NIDS functions as *classes* `C_i`, each with
//! a traffic specification, a placement scope (which nodes can run it), a
//! per-packet CPU requirement, and a per-item memory requirement. The
//! resource footprints follow the guidelines of Dreger et al. (RAID 2008)
//! as the paper does: CPU cost is per packet, memory cost is per aggregation
//! item (connection, source, destination).

use std::fmt;

/// Why a scaled class set could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassSetError {
    /// A duplicate-cycle base class (HTTP/IRC/Login/TFTP) is absent from
    /// the set being scaled.
    MissingBase { base: &'static str },
    /// Fewer modules requested than the set already contains.
    TooFew { requested: usize, minimum: usize },
    /// More modules requested than the paper's evaluation covers.
    TooMany { requested: usize, maximum: usize },
}

impl fmt::Display for ClassSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassSetError::MissingBase { base } => {
                write!(f, "duplicate base class {base} is missing from the set")
            }
            ClassSetError::TooFew { requested, minimum } => {
                write!(f, "scaled set needs at least {minimum} modules, got {requested}")
            }
            ClassSetError::TooMany { requested, maximum } => {
                write!(f, "the paper's evaluation tops out at {maximum} modules, got {requested}")
            }
        }
    }
}

impl std::error::Error for ClassSetError {}

/// Where a class's coordination units live (§2.1's placement affinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassScope {
    /// One coordination unit per ingress–egress path; any on-path node is
    /// eligible (e.g. signature matching, HTTP analysis).
    PerPath,
    /// One unit per ingress node; only the ingress observes all traffic a
    /// local host initiates (e.g. outbound scan detection).
    PerIngress,
    /// One unit per egress node; only the egress observes all traffic
    /// reaching a local host (e.g. inbound SYN-flood detection).
    PerEgress,
}

/// A NIDS analysis class `C_i`.
#[derive(Debug, Clone)]
pub struct AnalysisClass {
    pub name: String,
    pub scope: ClassScope,
    /// CPU cost per analyzed packet (abstract CPU-µs; relative magnitudes
    /// follow the module profiles of Fig 5).
    pub cpu_per_pkt: f64,
    /// Memory per tracked item (bytes per connection/source/destination).
    pub mem_per_item: f64,
    /// Items per flow for this aggregation level (1.0 for per-connection
    /// classes; < 1 for per-host classes, since many flows share a host).
    pub items_per_flow: f64,
}

impl AnalysisClass {
    fn new(
        name: &str,
        scope: ClassScope,
        cpu_per_pkt: f64,
        mem_per_item: f64,
        items_per_flow: f64,
    ) -> Self {
        AnalysisClass { name: name.to_string(), scope, cpu_per_pkt, mem_per_item, items_per_flow }
    }

    /// The nine-module set of the paper's Fig 5 microbenchmarks.
    ///
    /// Relative CPU/memory footprints follow the figure: Signature is the
    /// most CPU-hungry (payload matching on every packet); HTTP carries the
    /// most per-connection state; Scan/SYNFlood are cheap per packet but
    /// track per-host state.
    pub fn standard_set() -> Vec<AnalysisClass> {
        use ClassScope::*;
        vec![
            AnalysisClass::new("Baseline", PerPath, 1.0, 240.0, 1.0),
            AnalysisClass::new("Scan", PerIngress, 0.6, 520.0, 0.04),
            AnalysisClass::new("IRC", PerPath, 2.2, 340.0, 1.0),
            AnalysisClass::new("Login", PerPath, 2.6, 420.0, 1.0),
            AnalysisClass::new("TFTP", PerPath, 1.4, 260.0, 1.0),
            AnalysisClass::new("HTTP", PerPath, 3.8, 640.0, 1.0),
            AnalysisClass::new("Blaster", PerPath, 1.2, 200.0, 1.0),
            AnalysisClass::new("Signature", PerPath, 6.5, 300.0, 1.0),
            AnalysisClass::new("SYNFlood", PerEgress, 0.5, 480.0, 0.04),
        ]
    }

    /// The standard nine plus four real protocol analyzers (DNS, FTP,
    /// SMTP, SSH) — an extension beyond the paper's benchmark set for
    /// users who want coverage of the full generated traffic mix.
    pub fn extended_set() -> Vec<AnalysisClass> {
        use ClassScope::*;
        let mut set = Self::standard_set();
        set.push(AnalysisClass::new("DNS", PerPath, 1.2, 180.0, 1.0));
        set.push(AnalysisClass::new("FTP", PerPath, 2.0, 320.0, 1.0));
        set.push(AnalysisClass::new("SMTP", PerPath, 2.4, 380.0, 1.0));
        set.push(AnalysisClass::new("SSH", PerPath, 1.0, 220.0, 1.0));
        set
    }

    /// The Fig 6 module-scaling set: the standard nine plus duplicate
    /// instances of HTTP, IRC, Login and TFTP (the paper adds "fake"
    /// duplicates of exactly these), up to `total` modules (max 21).
    pub fn scaled_set(total: usize) -> Result<Vec<AnalysisClass>, ClassSetError> {
        Self::scaled_from(Self::standard_set(), total)
    }

    /// Scale an arbitrary base `set` up to `total` modules with the Fig 6
    /// duplicate cycle. Errors instead of panicking when the request is
    /// out of the paper's range or a cycle base class is missing.
    pub fn scaled_from(
        mut set: Vec<AnalysisClass>,
        total: usize,
    ) -> Result<Vec<AnalysisClass>, ClassSetError> {
        if total < set.len() {
            return Err(ClassSetError::TooFew { requested: total, minimum: set.len() });
        }
        if total > 21 {
            return Err(ClassSetError::TooMany { requested: total, maximum: 21 });
        }
        let dup_names = ["HTTP", "IRC", "Login", "TFTP"];
        let mut gen = 0usize;
        while set.len() < total {
            let base_name = dup_names[gen % dup_names.len()];
            let base = set
                .iter()
                .find(|c| c.name == base_name)
                .ok_or(ClassSetError::MissingBase { base: base_name })?
                .clone();
            let mut dup = base;
            gen += 1;
            dup.name = format!("{base_name}-dup{gen}");
            set.push(dup);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_matches_fig5_modules() {
        let set = AnalysisClass::standard_set();
        assert_eq!(set.len(), 9);
        let names: Vec<_> = set.iter().map(|c| c.name.as_str()).collect();
        for expect in
            ["Baseline", "Scan", "IRC", "Login", "TFTP", "HTTP", "Blaster", "Signature", "SYNFlood"]
        {
            assert!(names.contains(&expect), "missing {expect}");
        }
        // Signature is the CPU-heaviest module.
        let sig = set.iter().find(|c| c.name == "Signature").unwrap();
        for c in &set {
            assert!(c.cpu_per_pkt <= sig.cpu_per_pkt);
        }
    }

    #[test]
    fn scope_assignments() {
        let set = AnalysisClass::standard_set();
        assert_eq!(set.iter().find(|c| c.name == "Scan").unwrap().scope, ClassScope::PerIngress);
        assert_eq!(set.iter().find(|c| c.name == "SYNFlood").unwrap().scope, ClassScope::PerEgress);
        assert_eq!(set.iter().find(|c| c.name == "HTTP").unwrap().scope, ClassScope::PerPath);
    }

    #[test]
    fn scaled_set_reaches_21() {
        let set = AnalysisClass::scaled_set(21).expect("21 is within the paper's range");
        assert_eq!(set.len(), 21);
        // Duplicates come only from the four designated modules.
        for c in set.iter().skip(9) {
            assert!(
                c.name.starts_with("HTTP")
                    || c.name.starts_with("IRC")
                    || c.name.starts_with("Login")
                    || c.name.starts_with("TFTP"),
                "unexpected duplicate {}",
                c.name
            );
        }
        // Names are unique.
        let mut names: Vec<_> = set.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn scaled_set_rejects_out_of_range_totals() {
        assert_eq!(
            AnalysisClass::scaled_set(22).expect_err("over the 21-module cap"),
            ClassSetError::TooMany { requested: 22, maximum: 21 }
        );
        assert_eq!(
            AnalysisClass::scaled_set(4).expect_err("under the standard nine"),
            ClassSetError::TooFew { requested: 4, minimum: 9 }
        );
    }

    #[test]
    fn scaling_without_a_dup_base_is_an_error_not_a_panic() {
        // Drop HTTP — the first base in the duplicate cycle — and ask for
        // more modules than the remaining eight.
        let set: Vec<_> =
            AnalysisClass::standard_set().into_iter().filter(|c| c.name != "HTTP").collect();
        let err = AnalysisClass::scaled_from(set, 12).expect_err("HTTP base is missing");
        assert_eq!(err, ClassSetError::MissingBase { base: "HTTP" });
        assert!(err.to_string().contains("HTTP"));
    }
}
