//! The traced run's span recorder.
//!
//! Spans are recorded from outside the toolchain, around each call into
//! a layer's public function. Every span carries its name, start, end,
//! the span that was open when it began (its parent) and its request:
//! the pass and the kernel the call served. Spans stay in memory while
//! the benchmark runs and are written out once, at exit, as a Chrome
//! trace.
//!
//! The untraced run uses [`Off`], whose `span` is a plain call, so the
//! same pass code runs in both and the difference between the two is
//! the recording overhead.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Kernel index of a span that serves a whole pass.
pub const WHOLE_PASS: u32 = u32::MAX;

/// The request a span serves: one kernel in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    /// Pass number.
    pub pass: u32,
    /// Kernel index in the seed-permuted suite, or [`WHOLE_PASS`].
    pub kernel: u32,
}

/// Times layer calls, or not.
pub trait Recorder {
    /// Whether spans are recorded.
    const ON: bool;

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, req: Req, f: impl FnOnce(&mut Self) -> T) -> T;
}

/// The untraced recorder.
pub struct Off;

impl Recorder for Off {
    const ON: bool = false;

    #[inline(always)]
    fn span<T>(&mut self, _: &'static str, _: Req, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }
}

/// One recorded span; times are nanoseconds since the recorder began.
#[derive(Debug)]
pub struct Span {
    /// Layer call or grouping name.
    pub name: &'static str,
    /// The request served.
    pub req: Req,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Wall time inside the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The traced recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its children
    /// cover (children never overlap, since one thread records them).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Writes the spans of passes up to `last_pass` as a Chrome trace
    /// (`chrome://tracing`, Perfetto): one complete event per span, with
    /// its request, parent and self time as arguments. Returns the number
    /// of spans written.
    pub fn write_chrome(
        &self,
        path: &Path,
        kernel_names: &[&str],
        last_pass: u32,
    ) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        let mut written = 0;
        for (s, own) in self.spans.iter().zip(own) {
            if s.req.pass > last_pass {
                continue;
            }
            let (request, kernel) = match kernel_names.get(s.req.kernel as usize) {
                Some(name) => (format!("p{}.k{}", s.req.pass, s.req.kernel), *name),
                None => (format!("p{}", s.req.pass), ""),
            };
            let parent = s.parent.map_or("", |p| self.spans[p as usize].name);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":\"{request}\",\"kernel\":\"{kernel}\",\"parent\":\"{parent}\",\"self_us\":{:.3}}}}}",
                if written == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                own as f64 / 1e3,
            )?;
            written += 1;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()?;
        Ok(written)
    }
}

impl Recorder for Spans {
    const ON: bool = true;

    fn span<T>(&mut self, name: &'static str, req: Req, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index as usize].end_ns = end_ns;
        out
    }
}
