//! The benchmark's own spans around calls into each layer, and the
//! per-layer self time computed from them.
//!
//! A benchmark span is named `<layer>/<what>`, optionally suffixed with
//! `#<request id>`. Spans the libraries record themselves (such as the
//! pool's `parallel_for`) appear in the Chrome trace but are not
//! attributed to a layer here: a layer's self time is the time inside
//! the benchmark's spans for it, minus the benchmark spans nested in
//! them on the same thread.

use std::collections::BTreeMap;

use ninja_probe::{Phase, Span, TraceEvent};

use crate::report::LAYERS;

/// Opens a span whose name is built only when tracing is on, so the
/// untraced runs pay one relaxed load per call.
#[inline]
pub fn enter(name: impl FnOnce() -> String) -> Span {
    if ninja_probe::tracing_enabled() {
        ninja_probe::span(&name())
    } else {
        ninja_probe::span("")
    }
}

/// The layer a benchmark span belongs to, or `None` for library spans.
fn layer_of(name: &str) -> Option<&'static str> {
    let head = name.split('/').next()?;
    if !name.contains('/') {
        return None;
    }
    LAYERS.iter().copied().find(|l| *l == head)
}

/// Self time per layer, in microseconds, with every layer of
/// [`LAYERS`] present. Errors on an end without a matching begin.
pub fn self_times_us(events: &[TraceEvent]) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    // Per thread: open spans as (layer, start, time covered by children).
    let mut stacks: BTreeMap<u32, Vec<(&'static str, f64, f64)>> = BTreeMap::new();
    for ev in events {
        let Some(layer) = layer_of(&ev.name) else {
            continue;
        };
        let stack = stacks.entry(ev.tid).or_default();
        match ev.ph {
            Phase::Begin => stack.push((layer, ev.ts_us, 0.0)),
            Phase::End => {
                let (open, start, children) = stack
                    .pop()
                    .ok_or_else(|| format!("span end without begin: {}", ev.name))?;
                if open != layer {
                    return Err(format!("span {} closed inside a {open} span", ev.name));
                }
                let dur = (ev.ts_us - start).max(0.0);
                *out.get_mut(layer).expect("every layer is present") += (dur - children).max(0.0);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ph: Phase, ts_us: f64, tid: u32) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            ph,
            ts_us,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_benchmark_spans_only() {
        use Phase::{Begin as B, End as E};
        let events = [
            ev("loadgen/closed", B, 0.0, 1),
            ev("serve/submit#7", B, 10.0, 1),
            ev("serve/submit#7", E, 15.0, 1),
            // Library spans are ignored: they neither count nor nest.
            ev("parallel_for", B, 20.0, 1),
            ev("serve/wait#7", B, 20.0, 1),
            ev("serve/wait#7", E, 50.0, 1),
            ev("parallel_for", E, 50.0, 1),
            ev("loadgen/closed", E, 100.0, 1),
            // Another thread's spans do not nest in thread 1's.
            ev("kernels/nbody/ninja", B, 30.0, 2),
            ev("kernels/nbody/ninja", E, 70.0, 2),
        ];
        let t = self_times_us(&events).unwrap();
        assert_eq!(t["loadgen"], 65.0);
        assert_eq!(t["serve"], 35.0);
        assert_eq!(t["kernels"], 40.0);
        assert_eq!(t["simd"], 0.0);
        assert_eq!(t.len(), LAYERS.len());
    }

    #[test]
    fn unmatched_end_is_an_error() {
        let events = [ev("serve/wait#1", Phase::End, 1.0, 1)];
        assert!(self_times_us(&events).is_err());
    }

    #[test]
    fn untraced_spans_record_nothing() {
        assert!(!ninja_probe::tracing_enabled());
        let _s = enter(|| unreachable!("names are not built while tracing is off"));
    }
}
