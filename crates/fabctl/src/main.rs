//! `fabctl` — the CLI client for a running `fabd` daemon.
//!
//! Subcommands map one-to-one onto daemon endpoints; every request goes
//! through [`fabd::FabClient`], which retries connection failures and
//! `429 Too Many Requests` with jittered exponential backoff, honouring
//! the server's `Retry-After` hint.

#![forbid(unsafe_code)]

use fabd::{ClientError, FabClient, Json, RetryPolicy};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: fabctl [--addr <host:port>] [--retries <n>] [--timeout-ms <ms>] \
[--wait-ready <ms>] <command>

options:
  --wait-ready <ms>     poll /readyz (jittered backoff) until the daemon is
                        ready or <ms> elapse before running the command

commands:
  predict <t1,t2,...>   predict one token sequence
      [--model <name>]      profile to route to (server default otherwise)
      [--deadline-ms <ms>]  per-request deadline (504 when missed)
      [--tenant <name>]     tenant the request is charged to (quota + fair share)
      [--priority <class>]  interactive | batch | background (default interactive)
  stats                 JSON stats: models, tenants, priority classes
  models                list the model registry (names, versions, states)
  models load <file>    train the profile JSON in <file> and hot-swap it in
  models reload <name>  re-train a served profile and hot-swap it (version bump)
  models unload <name>  remove a model; its current version drains
  metrics               Prometheus metrics dump
  ready                 exit 0 when ready, 1 while loading/draining/unreachable
  circuits              per-model breaker state, admission limit, degrade ladder
  degrade <model> <n>   pin <model> to degrade rung <n> (0 = primary)
  degrade <model> off   return <model> to adaptive control
  chaos                 show chaos sites (rates and fire counts)
  chaos set <site> <every> [param_ms]
                        arm a chaos site (fault-injection daemons only;
                        every=0 disables, every=1 fires on each draw;
                        param_ms is the marker token id for poison_token)
  chaos reset           disarm every chaos site
  snapshot              persist every loaded model to the snapshot store now
  snapshot list         list snapshot versions on disk
  drain                 start a graceful drain (POST /admin/shutdown)";

struct Options {
    addr: String,
    retries: u32,
    timeout_ms: u64,
    wait_ready_ms: Option<u64>,
    command: Vec<String>,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:4270".to_string(),
        retries: 5,
        timeout_ms: 10_000,
        wait_ready_ms: None,
        command: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = args.next().ok_or("--addr needs host:port")?,
            "--retries" => {
                opts.retries =
                    args.next().and_then(|v| v.parse().ok()).ok_or("--retries needs a number")?;
            }
            "--timeout-ms" => {
                opts.timeout_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--timeout-ms needs a number")?;
            }
            "--wait-ready" => {
                opts.wait_ready_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--wait-ready needs a number")?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            _ => {
                opts.command.push(arg);
                opts.command.extend(args);
                break;
            }
        }
    }
    if opts.command.is_empty() {
        return Err(format!("missing command\n{USAGE}"));
    }
    Ok(opts)
}

fn parse_tokens(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse::<usize>().map_err(|_| format!("bad token '{s}'")))
        .collect()
}

fn run(opts: Options) -> Result<(), String> {
    let policy = RetryPolicy { max_retries: opts.retries, ..RetryPolicy::default() };
    // Seed the backoff jitter from the PID so concurrent fabctl invocations
    // retrying against the same overloaded daemon spread out.
    let mut client = FabClient::with_policy(&opts.addr, policy, u64::from(std::process::id()))
        .with_timeout(Duration::from_millis(opts.timeout_ms.max(1)));
    if let Some(ms) = opts.wait_ready_ms {
        client
            .wait_ready(Duration::from_millis(ms))
            .map_err(|e| format!("waiting for ready: {}", render_error(e)))?;
    }
    let command = opts.command[0].as_str();
    let rest = &opts.command[1..];
    match command {
        "predict" => {
            let mut tokens: Option<Vec<usize>> = None;
            let mut model: Option<String> = None;
            let mut deadline_ms: Option<u64> = None;
            let mut tenant: Option<String> = None;
            let mut priority: Option<String> = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--model" => {
                        model = Some(it.next().ok_or("--model needs a name")?.clone());
                    }
                    "--deadline-ms" => {
                        deadline_ms = Some(
                            it.next()
                                .and_then(|v| v.parse().ok())
                                .ok_or("--deadline-ms needs a number")?,
                        );
                    }
                    "--tenant" => {
                        tenant = Some(it.next().ok_or("--tenant needs a name")?.clone());
                    }
                    "--priority" => {
                        priority = Some(it.next().ok_or("--priority needs a class")?.clone());
                    }
                    spec => tokens = Some(parse_tokens(spec)?),
                }
            }
            let tokens = tokens.ok_or(format!("predict needs a token list\n{USAGE}"))?;
            let result = client
                .predict_qos(
                    model.as_deref(),
                    &tokens,
                    deadline_ms,
                    tenant.as_deref(),
                    priority.as_deref(),
                )
                .map_err(render_error)?;
            println!("{result}");
            Ok(())
        }
        "stats" => {
            let stats = client.stats().map_err(render_error)?;
            println!("{stats}");
            Ok(())
        }
        "models" => {
            let result = match rest.first().map(String::as_str) {
                None => client.models_list(),
                Some("load") => {
                    let path = rest.get(1).ok_or("models load needs a profile JSON file")?;
                    let text =
                        std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                    let profile = Json::parse(&text).map_err(|e| format!("profile JSON: {e}"))?;
                    client.models_load(&profile)
                }
                Some("reload") => {
                    let name = rest.get(1).ok_or("models reload needs a model name")?;
                    client.models_reload(name)
                }
                Some("unload") => {
                    let name = rest.get(1).ok_or("models unload needs a model name")?;
                    client.models_unload(name)
                }
                Some(other) => {
                    return Err(format!("unknown models action '{other}'\n{USAGE}"));
                }
            };
            println!("{}", result.map_err(render_error)?);
            Ok(())
        }
        "metrics" => {
            let text = client.metrics().map_err(render_error)?;
            print!("{text}");
            Ok(())
        }
        "ready" => match client.ready() {
            Ok(true) => {
                println!("ready");
                Ok(())
            }
            Ok(false) => Err("not ready".to_string()),
            Err(e) => Err(render_error(e)),
        },
        "snapshot" => {
            let result = match rest.first().map(String::as_str) {
                None => client.snapshot_trigger(),
                Some("list") => client.snapshot_list(),
                Some(other) => {
                    return Err(format!("unknown snapshot action '{other}'\n{USAGE}"));
                }
            };
            println!("{}", result.map_err(render_error)?);
            Ok(())
        }
        "circuits" => {
            let circuits = client.circuits().map_err(render_error)?;
            println!("{circuits}");
            Ok(())
        }
        "degrade" => {
            let model = rest.first().ok_or(format!("degrade needs a model name\n{USAGE}"))?;
            let level = match rest.get(1).map(String::as_str) {
                Some("off") => None,
                Some(n) => {
                    Some(n.parse::<usize>().map_err(|_| format!("bad degrade level '{n}'"))?)
                }
                None => return Err(format!("degrade needs a level or 'off'\n{USAGE}")),
            };
            let ack = client.degrade(model, level).map_err(render_error)?;
            println!("{ack}");
            Ok(())
        }
        "chaos" => {
            let result = match rest.first().map(String::as_str) {
                None => client.chaos_status(),
                Some("reset") => client.chaos_reset(),
                Some("set") => {
                    let site = rest.get(1).ok_or("chaos set needs a site name")?;
                    let every = rest
                        .get(2)
                        .and_then(|v| v.parse().ok())
                        .ok_or("chaos set needs an 'every' rate")?;
                    let param_ms = match rest.get(3) {
                        Some(v) => v.parse().map_err(|_| format!("bad param_ms '{v}'"))?,
                        None => 0,
                    };
                    client.chaos_configure(site, every, param_ms)
                }
                Some(other) => {
                    return Err(format!("unknown chaos action '{other}'\n{USAGE}"));
                }
            };
            println!("{}", result.map_err(render_error)?);
            Ok(())
        }
        "drain" => {
            let ack = client.drain().map_err(render_error)?;
            println!("{ack}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

/// Flattens a client failure into the message printed to stderr, keeping
/// the server's JSON `error` field when there is one.
fn render_error(e: ClientError) -> String {
    if let ClientError::Status { status, body } = &e {
        if let Ok(parsed) = Json::parse(body) {
            if let Some(msg) = parsed.get("error").and_then(Json::as_str) {
                return format!("server answered {status}: {msg}");
            }
        }
    }
    e.to_string()
}

fn main() -> ExitCode {
    match parse_options().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fabctl: {msg}");
            ExitCode::FAILURE
        }
    }
}
