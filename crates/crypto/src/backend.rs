//! Crypto-backend selection.
//!
//! Two AES implementations can run in an engine — the hardware AES-NI
//! lane ([`crate::aesni`]) and the software fused-T-table lane
//! ([`crate::aes`]), the fallback for hosts without AES-NI — and both are
//! byte-identical to the [`crate::reference`] oracle by the
//! crypto-equivalence gate. The [`CryptoBackend`] selector names which
//! one a cipher instance should run; [`Auto`](CryptoBackend::Auto) (the
//! default) runtime-detects hardware support and is what every engine
//! uses unless a test forces the fallback.
//!
//! Selection is resolved **once per cipher construction** (key
//! expansion time), never per block: an [`AesCtr`](crate::ctr::AesCtr)
//! *is* the one schedule of the lane it resolved to, so hot loops pay
//! zero dispatch overhead and a stream can never silently mix backends
//! mid-way.

/// Which AES implementation a cipher should use. Resolved against host
/// capabilities at construction time via [`CryptoBackend::resolve`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CryptoBackend {
    /// Runtime-detect: hardware AES when the host CPU supports it,
    /// otherwise the software T-table path. The default everywhere.
    #[default]
    Auto,
    /// Force the software fused-T-table path — the one hosts without
    /// AES-NI always take, forced so AES-NI hosts can test it.
    Software,
}

/// The implementation a [`CryptoBackend`] actually resolves to on this
/// host — what a constructed cipher reports via
/// [`AesCtr::active_backend`](crate::ctr::AesCtr::active_backend).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActiveBackend {
    /// AES-NI rounds, wide-batched CTR in XMM registers.
    Hardware,
    /// Fused T-table rounds, u128-lane XOR.
    Software,
}

impl CryptoBackend {
    /// Resolve this selector against the host: `Auto` yields
    /// [`ActiveBackend::Hardware`] exactly when AES-NI is detected (and
    /// falls back to software otherwise); `Software` is itself. Detection
    /// is a CPUID check on x86_64 and a compile-time `false` elsewhere.
    pub fn resolve(self) -> ActiveBackend {
        match self {
            CryptoBackend::Auto if crate::aesni::available() => ActiveBackend::Hardware,
            CryptoBackend::Auto | CryptoBackend::Software => ActiveBackend::Software,
        }
    }

    /// Does this host have usable hardware AES? (What `Auto` keys off.)
    pub fn hardware_available() -> bool {
        crate::aesni::available()
    }

    /// Short lowercase label (`"auto"`, `"software"`) for reports.
    pub fn label(self) -> &'static str {
        match self {
            CryptoBackend::Auto => "auto",
            CryptoBackend::Software => "software",
        }
    }
}

impl ActiveBackend {
    /// Short lowercase label (`"hardware"`, `"software"`).
    pub fn label(self) -> &'static str {
        match self {
            ActiveBackend::Hardware => "hardware",
            ActiveBackend::Software => "software",
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
    macro_rules! detect {
        ($($name:tt),*) => {{
            #[cfg(all(target_arch = "x86_64", feature = "hw-aes"))]
            let found = vec![$(($name, std::arch::is_x86_feature_detected!($name))),*];
            #[cfg(not(all(target_arch = "x86_64", feature = "hw-aes")))]
            let found = vec![$(($name, false)),*];
            found
        }};
    }
    detect!(
        "aes",
        "pclmulqdq",
        "sse4.1",
        "avx2",
        "vaes",
        "avx512f",
        "sha"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_is_itself_and_auto_resolves_by_detection() {
        assert_eq!(CryptoBackend::Software.resolve(), ActiveBackend::Software);
        let expect = if CryptoBackend::hardware_available() {
            ActiveBackend::Hardware
        } else {
            ActiveBackend::Software
        };
        assert_eq!(CryptoBackend::Auto.resolve(), expect);
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
