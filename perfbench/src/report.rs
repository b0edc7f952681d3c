//! The metric vocabulary and the one-line JSON result.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use ninja_kernels::{registry, Variant};

use crate::stats::{valid_metric_name, Tally};

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

fn spec(name: impl Into<String>, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        // Validated operations per second: kernel runs on `ladder`,
        // requests on the serve workloads.
        spec("ok_rps", "1/s", Higher),
        spec("p50_us", "us", Lower),
        spec("p90_us", "us", Lower),
        spec("setup_s", "s", Lower),
    ]
}

/// Layers the traced run attributes self time to.
pub const LAYERS: [&str; 6] = ["kernels", "simd", "parallel", "serve", "loadgen", "setup"];

/// Every per-layer metric a traced run prints, in a fixed order.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let mut out = Vec::new();
    for k in registry() {
        for v in Variant::ALL {
            out.push(spec(
                format!("kernels.{}.{}_ms", k.name, v.name()),
                "ms",
                Lower,
            ));
        }
        // An exact count from `Instance::work()`, not a speed.
        out.push(spec(
            format!("kernels.{}.flop_per_byte", k.name),
            "flop/B",
            Higher,
        ));
    }
    for v in Variant::ALL {
        out.push(spec(
            format!("ladder.{}_runs_per_s", v.name()),
            "1/s",
            Higher,
        ));
    }
    // Derived ratios, printed but not gated: a faster naive rung lowers
    // the gap.
    out.push(spec("ladder.gap", "ratio", Lower));
    out.push(spec("ladder.residual", "ratio", Lower));
    out.push(spec("simd.exp_ns_per_elem", "ns", Lower));
    out.push(spec("simd.norm_cdf_ns_per_elem", "ns", Lower));
    out.push(spec("parallel.for_empty_us", "us", Lower));
    out.push(spec("parallel.join_empty_us", "us", Lower));
    out.push(spec("parallel.chunks64_us", "us", Lower));
    out.push(spec("parallel.steals", "count", Higher));
    out.push(spec("parallel.local_pops", "count", Higher));
    out.push(spec("parallel.injector_pops", "count", Lower));
    out.push(spec("parallel.parked_ms", "ms", Lower));
    out.push(spec("parallel.idle_frac", "frac", Lower));
    out.push(spec("serve.submit_ns", "ns", Lower));
    out.push(spec("serve.queue_us_p50", "us", Lower));
    out.push(spec("serve.exec_us_p50", "us", Lower));
    out.push(spec("serve.batch_mean", "req", Higher));
    out.push(spec("serve.scalar_ref_us", "us", Lower));
    out.push(spec("serve.simd_batch_us", "us", Lower));
    out.push(spec("serve.ninja_batch_us", "us", Lower));
    out.push(spec("serve.rejected", "count", Lower));
    out.push(spec("serve.expired", "count", Lower));
    out.push(spec("serve.degraded", "count", Lower));
    out.push(spec("loadgen.late_us_p99", "us", Lower));
    out.push(spec("setup.inputs_s", "s", Lower));
    out.push(spec("setup.validate_s", "s", Lower));
    out.push(spec("failed_frac", "frac", Lower));
    out.push(spec("trace.overhead_frac", "frac", Lower));
    for l in LAYERS {
        out.push(spec(format!("trace.{l}_self_ms"), "ms", Lower));
    }
    out
}

/// Renders the result line, in `expected` order with the units it
/// lists. Every expected metric must be measured exactly once, with a
/// finite value and no extras; anything else is a bug in the benchmark
/// and is returned as an error.
pub fn json_line(
    tally: Tally,
    measured: &[(String, f64)],
    expected: &[MetricSpec],
) -> Result<String, String> {
    let got: BTreeSet<&str> = measured.iter().map(|(n, _)| n.as_str()).collect();
    if got.len() != measured.len() {
        return Err("a metric is reported twice".into());
    }
    let want: BTreeSet<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    if got != want {
        let missing: Vec<_> = want.difference(&got).collect();
        let extra: Vec<_> = got.difference(&want).collect();
        return Err(format!(
            "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
        ));
    }
    if tally.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, spec) in expected.iter().enumerate() {
        let value = measured
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map(|&(_, v)| v)
            .expect("set equality checked above");
        if !valid_metric_name(&spec.name) {
            return Err(format!("invalid metric name {:?}", spec.name));
        }
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", spec.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(list: &[(&str, f64)]) -> Vec<(String, f64)> {
        list.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn json_line_renders_every_metric_in_spec_order() {
        let tally = Tally {
            attempted: 10,
            failed: 1,
        };
        let want = [
            spec("ok_rps", "1/s", Better::Higher),
            spec("p50_us", "us", Better::Lower),
        ];
        let got = measured(&[("p50_us", 12.0), ("ok_rps", 1.5)]);
        assert_eq!(
            json_line(tally, &got, &want).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"ok_rps\": \
             {\"value\": 1.5, \"unit\": \"1/s\"}, \"p50_us\": {\"value\": 12.0, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn json_line_refuses_incomplete_or_bad_metrics() {
        let t = Tally {
            attempted: 1,
            failed: 0,
        };
        let want = [spec("a", "s", Better::Lower), spec("b", "s", Better::Lower)];
        assert!(json_line(t, &measured(&[("a", 1.0)]), &want).is_err());
        let extra = measured(&[("a", 1.0), ("b", 1.0), ("c", 1.0)]);
        assert!(json_line(t, &extra, &want).is_err());
        let dup = measured(&[("a", 1.0), ("a", 2.0), ("b", 1.0)]);
        assert!(json_line(t, &dup, &want).is_err());
        let nan = measured(&[("a", f64::NAN), ("b", 1.0)]);
        assert!(json_line(t, &nan, &want).is_err());
        let ok = measured(&[("a", 1.0), ("b", 1.0)]);
        assert!(json_line(Tally::default(), &ok, &want).is_err());
        assert!(json_line(t, &ok, &want).is_ok());
        let bad_name = [spec("a b", "s", Better::Lower)];
        assert!(json_line(t, &measured(&[("a b", 1.0)]), &bad_name).is_err());
    }

    /// The lists in `BENCHMARK.json` are the ones the code prints.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            body[..body.find(']').expect("section end")]
                .lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        };
        let render = |specs: Vec<MetricSpec>, bounded: bool| -> Vec<String> {
            specs
                .into_iter()
                .map(|m| {
                    let better = match m.better {
                        Better::Higher => "higher",
                        Better::Lower => "lower",
                    };
                    let head = format!(
                        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                        m.name, m.unit
                    );
                    if bounded {
                        head + ", \"bound\":"
                    } else {
                        head + "}"
                    }
                })
                .collect()
        };
        let e2e = section("end_to_end");
        let want = render(end_to_end(), true);
        assert_eq!(e2e.len(), want.len());
        for (line, head) in e2e.iter().zip(&want) {
            assert!(line.starts_with(head.as_str()), "{line} vs {head}");
        }
        assert_eq!(section("per_layer"), render(per_layer(), false));
        assert!(per_layer().len() <= 128);
        for m in end_to_end().iter().chain(&per_layer()) {
            assert!(valid_metric_name(&m.name), "{}", m.name);
        }
    }
}
