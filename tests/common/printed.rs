//! Reading what `nggc query` and `nggc client` print, in tests: the
//! counts of the first output and the timing line's cache mark.

/// The `N samples, M regions` of the first output printed.
pub fn counts(stdout: &str) -> (u64, u64) {
    let at = stdout.find(" samples, ").unwrap_or_else(|| panic!("no counts in {stdout}"));
    let samples = stdout[..at].rsplit(|c: char| !c.is_ascii_digit()).next().unwrap();
    let regions = stdout[at + " samples, ".len()..].split(' ').next().unwrap();
    (samples.parse().expect("a sample count"), regions.parse().expect("a region count"))
}

/// Whether the closing timing line says a result cache answered.
pub fn cached(stdout: &str) -> bool {
    stdout.trim_end().ends_with(", cached)")
}
