//! Records the compiler and whether `-C target-cpu=native` (the root
//! `.cargo/config.toml`) was in effect for this build, for the
//! provenance block: the kernels' throughput depends on both.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let native = flags.split('\x1f').any(|f| f.contains("target-cpu=native"));
    println!(
        "cargo:rustc-env=BENCH_TARGET_CPU_NATIVE={}",
        u8::from(native)
    );
    println!("cargo:rerun-if-changed=build.rs");
}
