//! What the host looked like while a run measured: core count, SIMD
//! backend, load and CPU pressure, so a noisy run is visible in its result
//! file; plus this process's own peak memory and CPU time.

use fabd::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, threads that already exited
/// included (`/proc/self/stat` fields 14 and 15; USER_HZ is 100 on Linux).
pub fn process_cpu_s() -> f64 {
    read("/proc/self/stat")
        .and_then(|s| {
            // The command name may hold spaces; fields resume after ')'.
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

fn load_average_1m() -> f64 {
    read("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Total microseconds some task waited for a CPU (`/proc/pressure/cpu`,
/// `some ... total=`); `None` where the kernel has no PSI.
fn cpu_pressure_total_us() -> Option<f64> {
    read("/proc/pressure/cpu")?
        .lines()
        .find(|l| l.starts_with("some"))?
        .split_whitespace()
        .find_map(|f| f.strip_prefix("total="))?
        .parse()
        .ok()
}

/// Taken at the start of a run; [`HostProbe::finish`] closes the window.
pub struct HostProbe {
    load_before: f64,
    pressure_before: Option<f64>,
    cpu_before: f64,
    started: std::time::Instant,
}

impl HostProbe {
    pub fn start() -> Self {
        Self {
            load_before: load_average_1m(),
            pressure_before: cpu_pressure_total_us(),
            cpu_before: process_cpu_s(),
            started: std::time::Instant::now(),
        }
    }

    /// The `host` block of a result file.
    pub fn finish(&self) -> Json {
        let wall = self.started.elapsed().as_secs_f64();
        let pressure = match (self.pressure_before, cpu_pressure_total_us()) {
            (Some(a), Some(b)) => Json::Num((b - a) / 1e6 / wall.max(1e-9)),
            _ => Json::Null,
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Json::Obj(vec![
            ("nproc".to_string(), Json::Num(nproc as f64)),
            ("cpu_features".to_string(), Json::Str(fab_tensor::simd::cpu_features())),
            ("simd_backend".to_string(), Json::Str(fab_tensor::simd::backend().name().to_string())),
            (
                "rayon_num_threads".to_string(),
                std::env::var("RAYON_NUM_THREADS").map_or(Json::Null, Json::Str),
            ),
            ("rayon_threads_used".to_string(), Json::Num(rayon::current_num_threads() as f64)),
            ("load_average_before".to_string(), Json::Num(self.load_before)),
            ("load_average_after".to_string(), Json::Num(load_average_1m())),
            // Share of the run during which some runnable task had no CPU.
            ("cpu_pressure_share".to_string(), pressure),
            ("process_cpu_s".to_string(), Json::Num(process_cpu_s() - self.cpu_before)),
            ("wall_s".to_string(), Json::Num(wall)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_something_sane() {
        assert!(peak_rss_mb() > 0.5, "VmHWM {}", peak_rss_mb());
        let before = process_cpu_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() - before >= 0.03, "cpu time advances while spinning");
    }

    #[test]
    fn host_block_names_the_fields_a_reader_needs() {
        let block = HostProbe::start().finish();
        for key in
            ["nproc", "cpu_features", "simd_backend", "load_average_before", "cpu_pressure_share"]
        {
            assert!(block.get(key).is_some(), "missing {key}");
        }
        assert!(block.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}
