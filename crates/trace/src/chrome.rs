//! Chrome `trace-event` JSON output.
//!
//! Produces a document loadable in `chrome://tracing` or Perfetto:
//! one process (`pid`) per CMP core, a `functions` thread with B/E
//! duration events reconstructed from [`TraceEvent::Call`] /
//! [`TraceEvent::Return`], a `stalls` thread with one complete (`X`)
//! event per attributed stall, and — for TDMA configurations — global
//! instant markers at the arbiter's slot boundaries. Cycle numbers are
//! written directly as timestamps (1 "µs" = 1 cycle).

use std::fmt::Write as _;

use patmos_asm::ObjectImage;

use crate::event::TraceEvent;
use crate::json_escape;

/// One core's recorded stream, tagged with its core id.
#[derive(Debug, Clone, Copy)]
pub struct CoreTrace<'a> {
    /// The CMP core id (0 for a uniprocessor run).
    pub core: u32,
    /// The events, in recording order.
    pub events: &'a [TraceEvent],
}

/// The TDMA arbiter's slot geometry, for slot-boundary markers.
#[derive(Debug, Clone, Copy)]
pub struct TdmaSlots {
    /// Cycles per slot.
    pub slot_cycles: u32,
    /// Number of cores sharing the wheel.
    pub cores: u32,
}

fn func_name(image: &ObjectImage, pc: u32) -> String {
    image
        .function_at(pc)
        .map(|f| f.name.clone())
        .unwrap_or_else(|| format!("word_{pc}"))
}

/// Renders the trace-event JSON document for one or more cores.
pub fn chrome_trace(
    cores: &[CoreTrace<'_>],
    image: &ObjectImage,
    tdma: Option<TdmaSlots>,
) -> String {
    let mut rows: Vec<String> = Vec::new();
    let mut last_cycle = 0u64;

    for ct in cores {
        let pid = ct.core;
        rows.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"core {pid}\"}}}}"
        ));
        rows.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"functions\"}}}}"
        ));
        rows.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\
             \"args\":{{\"name\":\"stalls\"}}}}"
        ));

        // The entry function's activation opens at cycle 0.
        let mut stack: Vec<String> = vec![func_name(image, image.entry_word())];
        rows.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":0,\"pid\":{pid},\"tid\":0}}",
            json_escape(&stack[0])
        ));

        let mut core_last = 0u64;
        for e in ct.events {
            core_last = core_last.max(e.cycle());
            match *e {
                TraceEvent::Call { pc, cycle } => {
                    let name = func_name(image, pc);
                    rows.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":{cycle},\"pid\":{pid},\"tid\":0}}",
                        json_escape(&name)
                    ));
                    stack.push(name);
                }
                TraceEvent::Return { cycle, .. } if stack.len() > 1 => {
                    stack.pop();
                    rows.push(format!(
                        "{{\"ph\":\"E\",\"ts\":{cycle},\"pid\":{pid},\"tid\":0}}"
                    ));
                }
                TraceEvent::Stall {
                    cycle,
                    cycles,
                    cause,
                    ..
                } => {
                    let ts = cycle.saturating_sub(cycles);
                    rows.push(format!(
                        "{{\"name\":\"{cause}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{cycles},\
                         \"pid\":{pid},\"tid\":1}}"
                    ));
                }
                TraceEvent::TdmaWait { cycle, cycles, .. } => {
                    let ts = cycle.saturating_sub(cycles);
                    rows.push(format!(
                        "{{\"name\":\"tdma_wait\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{cycles},\
                         \"pid\":{pid},\"tid\":1,\"cname\":\"terrible\"}}"
                    ));
                }
                _ => {}
            }
        }
        // Close whatever is still on the stack so Perfetto renders it.
        while !stack.is_empty() {
            stack.pop();
            rows.push(format!(
                "{{\"ph\":\"E\",\"ts\":{core_last},\"pid\":{pid},\"tid\":0}}"
            ));
        }
        last_cycle = last_cycle.max(core_last);
    }

    if let Some(t) = tdma {
        if t.slot_cycles > 0 && t.cores > 0 {
            let mut cycle = 0u64;
            let mut slot = 0u32;
            while cycle <= last_cycle {
                rows.push(format!(
                    "{{\"name\":\"slot core {slot}\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{cycle},\"pid\":0,\"tid\":0}}"
                ));
                cycle += t.slot_cycles as u64;
                slot = (slot + 1) % t.cores;
            }
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("  ");
        out.push_str(r);
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(out, "],\"displayTimeUnit\":\"ns\"}}");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallCause;

    #[test]
    fn renders_calls_stalls_and_slots() {
        let image = patmos_asm::assemble(
            "        .func main\n\
                     .entry main\n\
                     nop\n\
                     halt\n\
                     .func leaf\n\
                     halt\n",
        )
        .expect("assembles");
        let events = [
            TraceEvent::Call { pc: 2, cycle: 3 },
            TraceEvent::Stall {
                pc: 2,
                cycle: 11,
                cycles: 8,
                cause: StallCause::MethodCache,
            },
            TraceEvent::TdmaWait {
                pc: 2,
                cycle: 6,
                cycles: 2,
            },
            TraceEvent::Return { pc: 1, cycle: 14 },
        ];
        let json = chrome_trace(
            &[CoreTrace {
                core: 0,
                events: &events,
            }],
            &image,
            Some(TdmaSlots {
                slot_cycles: 8,
                cores: 2,
            }),
        );
        assert!(json.contains("\"name\":\"main\",\"ph\":\"B\",\"ts\":0"));
        assert!(json.contains("\"name\":\"leaf\",\"ph\":\"B\",\"ts\":3"));
        assert!(json.contains("\"name\":\"method_cache\",\"ph\":\"X\",\"ts\":3,\"dur\":8"));
        assert!(json.contains("\"name\":\"tdma_wait\""));
        assert!(json.contains("\"name\":\"slot core 1\""));
        // Balanced activations: one B per E.
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
    }
}
