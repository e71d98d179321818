//! Golden-file comparison for the suites that pin text byte for byte. A suite
//! includes this file by path — `#[path = ".."] mod golden;` — and calls
//! [`check`] with what it rendered.

use std::fmt::Write as _;

/// Compare `actual` with the file at `path`, naming every differing line;
/// with `UPDATE_GOLDEN` set, write `actual` there instead. `what` names the
/// text in the failure message and `regenerate` is the command that rewrites
/// the file.
pub fn check(path: &str, actual: &str, what: &str, regenerate: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let mut diff = String::new();
    for i in 0..want.len().max(got.len()) {
        if want.get(i) != got.get(i) {
            let (w, g) = (want.get(i).unwrap_or(&"<end>"), got.get(i).unwrap_or(&"<end>"));
            writeln!(diff, "line {}:\n  - {w}\n  + {g}", i + 1).unwrap();
        }
    }
    assert!(
        golden == actual,
        "{what} differs from {path} (- golden, + now):\n{diff}\n\
         if the change is intended, regenerate with: {regenerate}"
    );
}
