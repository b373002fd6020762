//! The `fabd` binary: load config, train profiles, serve until SIGTERM /
//! SIGINT (or a `POST /admin/shutdown`), then drain gracefully.

use fabd::{Daemon, DaemonConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs an async-signal-safe handler for `signum` without a `libc`
/// dependency: `std` already links the platform C library on Unix, so the
/// `signal(2)` symbol is available to declare directly.
#[cfg(unix)]
fn install_signal_handler(signum: i32) {
    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: the handler must stay async-signal-safe.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(signum, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handler(_signum: i32) {}

const USAGE: &str =
    "usage: fabd [--config <file.json>] [--addr <host:port>] [--fault-injection] [--print-config]

Serves the configured model profiles over HTTP/1.1.
  --config <file>     JSON config file ({} serves the built-in defaults)
  --addr <host:port>  override the listen address (port 0 = ephemeral)
  --fault-injection   allow arming chaos sites (config 'chaos' section, /admin/chaos)
  --print-config      print the effective config as JSON and exit";

fn parse_args() -> Result<(DaemonConfig, bool), String> {
    let mut config_path: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut fault_injection = false;
    let mut print_config = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => {
                config_path = Some(args.next().ok_or("--config needs a file path")?);
            }
            "--addr" => {
                addr = Some(args.next().ok_or("--addr needs host:port")?);
            }
            "--fault-injection" => fault_injection = true,
            "--print-config" => print_config = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let mut config = match config_path {
        None => DaemonConfig::default(),
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            DaemonConfig::from_json_str(&text)?
        }
    };
    if let Some(addr) = addr {
        config.addr = addr;
    }
    if fault_injection {
        config.fault_injection = true;
    }
    Ok((config, print_config))
}

fn main() -> ExitCode {
    let (config, print_config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("fabd: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if print_config {
        println!("{config}");
        return ExitCode::SUCCESS;
    }

    install_signal_handler(15); // SIGTERM
    install_signal_handler(2); // SIGINT

    eprintln!(
        "fabd: training {} profile(s): {}",
        config.profiles.len(),
        config.profiles.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(", ")
    );
    let daemon = match Daemon::start(config) {
        Ok(daemon) => daemon,
        Err(msg) => {
            eprintln!("fabd: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // Parsed by the CI smoke job and tests to find the ephemeral port.
    println!("fabd: listening on {}", daemon.addr());

    while !SHUTDOWN.load(Ordering::SeqCst) && !daemon.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("fabd: draining");
    daemon.shutdown();
    eprintln!("fabd: drained, exiting");
    ExitCode::SUCCESS
}
