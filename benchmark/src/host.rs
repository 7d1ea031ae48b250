//! The host fingerprint printed with every run record, so numbers from
//! different hosts or knob settings are detectably non-comparable, and the
//! process's peak resident memory.

use std::process::Command;

/// First line of a command's stdout, or `"unknown"` when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One-line JSON fingerprint: cpus, rustc, git rev and dirty flag, the
/// tensor backend's thread count and kernel mode, and every `UAE_*`
/// variable set in the environment.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let rev = first_line("git", &["rev-parse", "HEAD"]);
    let dirty = if rev == "unknown" {
        "unknown".to_string()
    } else {
        let status = Command::new("git")
            .args(["status", "--porcelain", "--untracked-files=no"])
            .output();
        match status {
            Ok(o) if o.status.success() => (!o.stdout.is_empty()).to_string(),
            _ => "unknown".into(),
        }
    };
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("UAE_"))
        .collect();
    vars.sort();
    let env = vars
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"git_rev\":{},\"git_dirty\":{},\"num_threads\":{},\"kernel_mode\":{},\"uae_env\":{{{env}}}}}",
        json_str(&first_line("rustc", &["--version"])),
        json_str(&rev),
        json_str(&dirty),
        uae_tensor::num_threads(),
        json_str(&format!("{:?}", uae_tensor::kernel_mode())),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
