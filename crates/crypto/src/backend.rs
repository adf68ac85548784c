//! Pluggable crypto-backend selection.
//!
//! Three AES implementations coexist in this crate — the hardware AES-NI
//! path ([`crate::aesni`]), the software fused-T-table path
//! ([`crate::aes`]), and the retained byte-oriented FIPS-197 reference —
//! and all three are byte-identical by the crypto-equivalence gate. The
//! [`CryptoBackend`] selector names which one a cipher instance should
//! run; [`Auto`](CryptoBackend::Auto) (the default) runtime-detects
//! hardware support and is what every engine uses unless a bench or test
//! forces a specific path.
//!
//! Selection is resolved **once per cipher construction** (key
//! expansion time), never per block: an [`AesCtr`](crate::ctr::AesCtr)
//! built under one selector carries its resolved implementation for
//! life, so hot loops pay zero dispatch overhead and a stream can never
//! silently mix backends mid-way.

/// Which AES implementation a cipher should use. Resolved against host
/// capabilities at construction time via [`CryptoBackend::resolve`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CryptoBackend {
    /// Runtime-detect: hardware AES when the host CPU supports it,
    /// otherwise the software T-table path. The default everywhere.
    #[default]
    Auto,
    /// Force the software fused-T-table path (the crypto A/B's "software"
    /// series, and the path CI hosts without AES-NI always take).
    Software,
    /// Request hardware AES-NI. Falls back to [`Software`] semantics on
    /// hosts (or builds) without it — forcing `Hardware` is a preference,
    /// never a hard failure, so one config runs everywhere.
    ///
    /// [`Software`]: CryptoBackend::Software
    Hardware,
    /// The retained byte-oriented FIPS-197 reference implementation —
    /// benchmark instrumentation only (the A/B's "before" series).
    Reference,
}

/// The implementation a [`CryptoBackend`] actually resolves to on this
/// host — what a constructed cipher reports via
/// [`AesCtr::active_backend`](crate::ctr::AesCtr::active_backend).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActiveBackend {
    /// AES-NI rounds, wide-batched CTR in XMM registers.
    Hardware,
    /// Fused T-table rounds, x4-batched keystream, u128-lane XOR.
    Software,
    /// Byte-oriented FIPS-197 rounds, byte-at-a-time XOR.
    Reference,
}

impl CryptoBackend {
    /// Resolve this selector against the host: `Auto` and `Hardware`
    /// yield [`ActiveBackend::Hardware`] exactly when AES-NI is detected
    /// (and fall back to software otherwise); `Software` and `Reference`
    /// are themselves. Detection is a CPUID check on x86_64 and a
    /// compile-time `false` elsewhere.
    pub fn resolve(self) -> ActiveBackend {
        match self {
            CryptoBackend::Reference => ActiveBackend::Reference,
            CryptoBackend::Software => ActiveBackend::Software,
            CryptoBackend::Auto | CryptoBackend::Hardware => {
                if crate::aesni::available() {
                    ActiveBackend::Hardware
                } else {
                    ActiveBackend::Software
                }
            }
        }
    }

    /// Does this host have usable hardware AES? (What `Auto` keys off.)
    pub fn hardware_available() -> bool {
        crate::aesni::available()
    }

    /// Short lowercase label (`"auto"`, `"software"`, …) for reports.
    pub fn label(self) -> &'static str {
        match self {
            CryptoBackend::Auto => "auto",
            CryptoBackend::Software => "software",
            CryptoBackend::Hardware => "hardware",
            CryptoBackend::Reference => "reference",
        }
    }
}

impl ActiveBackend {
    /// Short lowercase label (`"hardware"`, `"software"`, `"reference"`).
    pub fn label(self) -> &'static str {
        match self {
            ActiveBackend::Hardware => "hardware",
            ActiveBackend::Software => "software",
            ActiveBackend::Reference => "reference",
        }
    }
}

impl std::fmt::Display for CryptoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::fmt::Display for ActiveBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The crypto-relevant CPU features of this host, as `(name, detected)`
/// pairs — recorded in every `benchmark/` run's environment block so a
/// measurement is always attributable to the silicon it ran on.
/// Empty-handed (all `false`) on non-x86_64 targets and software-only
/// builds.
pub fn cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(all(target_arch = "x86_64", feature = "hw-aes"))]
    {
        vec![
            ("aes", std::arch::is_x86_feature_detected!("aes")),
            (
                "pclmulqdq",
                std::arch::is_x86_feature_detected!("pclmulqdq"),
            ),
            ("sse4.1", std::arch::is_x86_feature_detected!("sse4.1")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("vaes", std::arch::is_x86_feature_detected!("vaes")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("sha", std::arch::is_x86_feature_detected!("sha")),
        ]
    }
    #[cfg(not(all(target_arch = "x86_64", feature = "hw-aes")))]
    {
        vec![
            ("aes", false),
            ("pclmulqdq", false),
            ("sse4.1", false),
            ("avx2", false),
            ("vaes", false),
            ("avx512f", false),
            ("sha", false),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_backends_resolve_to_themselves() {
        assert_eq!(CryptoBackend::Software.resolve(), ActiveBackend::Software);
        assert_eq!(CryptoBackend::Reference.resolve(), ActiveBackend::Reference);
    }

    #[test]
    fn auto_and_hardware_resolve_by_detection() {
        let expect = if CryptoBackend::hardware_available() {
            ActiveBackend::Hardware
        } else {
            ActiveBackend::Software
        };
        assert_eq!(CryptoBackend::Auto.resolve(), expect);
        // Forced Hardware is a preference, not a hard failure: it must
        // degrade to Software on non-capable hosts instead of panicking.
        assert_eq!(CryptoBackend::Hardware.resolve(), expect);
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(CryptoBackend::default(), CryptoBackend::Auto);
    }

    #[test]
    fn cpu_features_report_is_consistent_with_detection() {
        let features = cpu_features();
        let aes = features
            .iter()
            .find(|(name, _)| *name == "aes")
            .expect("aes always reported")
            .1;
        assert_eq!(aes, CryptoBackend::hardware_available());
    }
}
