//! Host provenance stamped on every result: cores, CPU model, NUMA nodes,
//! kernel, compiler and source revision.

use std::process::Command;

pub struct Provenance {
    pub nproc: usize,
    pub cpu: String,
    pub numa_nodes: usize,
    pub kernel: String,
    pub rustc: String,
    pub git: String,
}

fn first_line(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .next()
        .unwrap_or("")
        .trim()
        .to_string()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if program == "git" {
        // Never let git walk above the directory the benchmark runs in.
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| first_line(&out.stdout))
        .filter(|s| !s.is_empty())
}

impl Provenance {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let numa_nodes = std::fs::read_dir("/sys/devices/system/node")
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        name.strip_prefix("node")
                            .is_some_and(|n| !n.is_empty() && n.bytes().all(|c| c.is_ascii_digit()))
                    })
                    .count()
            })
            .unwrap_or(0)
            .max(1);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            numa_nodes,
            kernel,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" numa_nodes={} kernel={} rustc=\"{}\" git={}",
            self.nproc, self.cpu, self.numa_nodes, self.kernel, self.rustc, self.git
        )
    }

    /// Labels a cell whose busy threads exceed the host's cores.
    pub fn subscription(&self, threads: usize) -> String {
        if threads > self.nproc {
            format!("(oversubscribed: {threads} threads > nproc {})", self.nproc)
        } else {
            format!("(nproc {})", self.nproc)
        }
    }
}
