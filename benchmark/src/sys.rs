//! Process-level readings from `/proc` and small statistics helpers.

/// Resident set size of this process, bytes (0 if unreadable).
pub fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// User + system CPU time of the whole process (every thread, live or
/// exited), ns. `/proc/self/stat` counts clock ticks of 10 ms.
pub fn process_cpu_ns() -> u64 {
    const TICK_NS: u64 = 10_000_000;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (get(11) + get(12)) * TICK_NS
}

/// CPU time of the calling thread, ns (scheduler accounting).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// UDP datagrams the kernel dropped for want of receive-buffer space,
/// in this network namespace (`None` if unreadable).
pub fn udp_rcvbuf_errors() -> Option<u64> {
    let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
    let mut lines = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let header: Vec<&str> = lines.next()?.split_whitespace().collect();
    let values: Vec<&str> = lines.next()?.split_whitespace().collect();
    let col = header.iter().position(|h| *h == "RcvbufErrors")?;
    values.get(col)?.parse().ok()
}

/// The `q`-quantile (0..=1) of `sorted`, nearest-rank; NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}
