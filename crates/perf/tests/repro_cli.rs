//! The `repro` binary's command line: known sections print, unknown ones
//! fail, the paper sections print the pinned figures and the measured
//! cross-check agrees.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn an_unknown_section_fails_with_the_usage() {
    let out = repro(&["fig6", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing is printed before the check");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("`bogus`"), "{stderr}");
    for section in ["table1", "fig5", "fig6", "fig7", "energy", "measured"] {
        assert!(stderr.contains(section), "usage lacks {section}: {stderr}");
    }
}

#[test]
fn figures_6_and_7_print_paper_and_model_per_variant() {
    let out = repro(&["fig6", "fig7"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for variant in ["SW", "SW/HW", "HW"] {
        let rows = stdout
            .lines()
            .filter(|line| {
                let mut words = line.split_whitespace();
                words.next() == Some(variant) && words.next() == Some("paper")
            })
            .filter(|line| line.contains(" model "))
            .count();
        assert_eq!(rows, 2, "{variant}: one row per figure\n{stdout}");
    }
}

#[test]
fn the_paper_sections_print_the_pinned_figures() {
    // Every digit of Table 1, Figures 5–7 and the energy estimate, as the
    // analytic model printed them when this file was pinned.
    let out = repro(&["table1", "fig5", "fig6", "fig7", "energy"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        include_str!("golden/repro.txt")
    );
}

#[test]
fn the_measured_cross_check_agrees_for_both_figures() {
    let out = repro(&["measured"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    for figure in ["Figure 6 (Music Player)", "Figure 7 (Ringtone)"] {
        let verdict = stdout
            .split(&format!("--- {figure}:"))
            .nth(1)
            .and_then(|section| section.lines().find(|l| l.contains("max deviation")))
            .unwrap_or_else(|| panic!("{figure}: no verdict\n{stdout}"));
        assert!(verdict.ends_with("(agrees)"), "{figure}: {verdict}");
    }
}
