//! Object images: the linked output of the assembler.

use std::collections::HashMap;
use std::fmt;

use patmos_isa::{decode_all, Bundle, DecodeError};

/// A function in the image, as the method cache sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncInfo {
    /// The symbol name.
    pub name: String,
    /// Start address in words.
    pub start_word: u32,
    /// Size in words (what a method-cache fill transfers).
    pub size_words: u32,
}

/// A chunk of initialised data placed in main memory by the loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// The defining symbol.
    pub name: String,
    /// Byte address of the first byte.
    pub addr: u32,
    /// The bytes to place.
    pub bytes: Vec<u8>,
}

/// A loop-bound annotation for the WCET analysis, attached to the word
/// address of the loop header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBound {
    /// Word address of the annotated bundle (the loop header).
    pub addr: u32,
    /// Minimum iteration count.
    pub min: u32,
    /// Maximum iteration count (what the analysis uses).
    pub max: u32,
}

/// A function's source location, from a `.srcfunc` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFunc {
    /// The function name (matches a `.func` symbol).
    pub name: String,
    /// 1-based source line of the definition.
    pub line: u32,
}

/// A source loop's code region, from a `.srcloop` directive. The span
/// covers everything the compiler derived from the loop — unrolled
/// copies, a software-pipelined prologue/kernel/epilogue and its
/// list-scheduled fallback included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceLoop {
    /// 1-based source line of the loop statement.
    pub line: u32,
    /// First word of the region.
    pub start_word: u32,
    /// One past the last word of the region.
    pub end_word: u32,
}

impl SourceLoop {
    /// Whether the region contains the word address.
    pub fn contains(&self, word: u32) -> bool {
        word >= self.start_word && word < self.end_word
    }
}

/// A software-pipelined loop's structured shape record, the
/// `.pipeloop` directive: which block guards the pipeline, where the
/// kernel and the short-trip fallback loop live, and the facts the
/// WCET analysis needs to charge the pipelined shape instead of the
/// fallback — the fallback runs at most `threshold` header executions
/// per entry (it is only entered when the guard fails), and it never
/// runs at all when `min_trips >= threshold`.
///
/// `L` names the three blocks: labels in a
/// [`Stmt::PipeLoop`](crate::Stmt::PipeLoop), word
/// addresses in [`ObjectImage::pipe_loops`]. Its `Display` is the
/// directive's operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeLoop<L = u32> {
    /// The block holding the guard compare-and-branch (the original
    /// loop header).
    pub guard: L,
    /// The kernel loop header.
    pub kernel: L,
    /// The header of the list-scheduled short-trip fallback loop.
    pub fallback: L,
    /// Kernel initiation interval in bundles.
    pub ii: u32,
    /// Pipeline stage count.
    pub stages: u32,
    /// Prologue bundle count (`(stages − 1) × ii`).
    pub prologue: u32,
    /// Epilogue bundle count (drain plus shadow padding).
    pub epilogue: u32,
    /// The guard's trip-count threshold: the guard passes exactly when
    /// the loop runs at least this many iterations.
    pub threshold: u32,
    /// Provable lower bound on the trip count (0 when unknown); the
    /// compiler writes its `.loopbound` min, in header executions,
    /// minus one.
    pub min_trips: u32,
}

impl<L> PipeLoop<L> {
    /// The same record with its three blocks named by `f`, which is
    /// asked for the guard, the kernel and the fallback in turn; its
    /// first error is returned.
    pub(crate) fn try_map<M, E>(
        &self,
        mut f: impl FnMut(&L) -> Result<M, E>,
    ) -> Result<PipeLoop<M>, E> {
        Ok(PipeLoop {
            guard: f(&self.guard)?,
            kernel: f(&self.kernel)?,
            fallback: f(&self.fallback)?,
            ii: self.ii,
            stages: self.stages,
            prologue: self.prologue,
            epilogue: self.epilogue,
            threshold: self.threshold,
            min_trips: self.min_trips,
        })
    }
}

impl<L: fmt::Display> fmt::Display for PipeLoop<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let PipeLoop {
            guard,
            kernel,
            fallback,
            ii,
            stages,
            prologue,
            epilogue,
            threshold,
            min_trips,
        } = self;
        write!(
            f,
            "{guard} {kernel} {fallback} {ii} {stages} {prologue} {epilogue} {threshold} \
             {min_trips}"
        )
    }
}

/// The source-map side table: function definition lines and loop code
/// regions. Empty for images assembled from plain `.pasm` sources.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceInfo {
    /// Function definition lines.
    pub funcs: Vec<SourceFunc>,
    /// Loop regions, in program order.
    pub loops: Vec<SourceLoop>,
}

impl SourceInfo {
    /// Whether the image carries no source map at all.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty() && self.loops.is_empty()
    }

    /// The definition line of a function, if mapped.
    pub fn func_line(&self, name: &str) -> Option<u32> {
        self.funcs.iter().find(|f| f.name == name).map(|f| f.line)
    }

    /// The innermost (smallest) loop region containing the word address.
    pub fn innermost_loop_at(&self, word: u32) -> Option<&SourceLoop> {
        self.loops
            .iter()
            .filter(|l| l.contains(word))
            .min_by_key(|l| l.end_word - l.start_word)
    }
}

/// The assembled program: code, function table, data, symbols and
/// annotations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectImage {
    pub(crate) code: Vec<u32>,
    pub(crate) functions: Vec<FuncInfo>,
    pub(crate) data: Vec<DataSegment>,
    pub(crate) symbols: HashMap<String, u32>,
    pub(crate) loop_bounds: Vec<LoopBound>,
    pub(crate) pipe_loops: Vec<PipeLoop>,
    pub(crate) source: SourceInfo,
    pub(crate) entry_word: u32,
}

impl ObjectImage {
    /// Builds an image directly from raw code words and a function
    /// table — the entry point for binary loaders, and for tests that
    /// need images the assembler would never emit (e.g. corrupt words).
    pub fn from_raw(code: Vec<u32>, functions: Vec<FuncInfo>, entry_word: u32) -> ObjectImage {
        ObjectImage {
            code,
            functions,
            entry_word,
            ..ObjectImage::default()
        }
    }

    /// The encoded instruction words.
    pub fn code(&self) -> &[u32] {
        &self.code
    }

    /// The function table, sorted by start address.
    pub fn functions(&self) -> &[FuncInfo] {
        &self.functions
    }

    /// Initialised data segments.
    pub fn data(&self) -> &[DataSegment] {
        &self.data
    }

    /// All symbols (labels: word addresses; data/equ: their values).
    pub fn symbols(&self) -> &HashMap<String, u32> {
        &self.symbols
    }

    /// Loop-bound annotations in program order.
    pub fn loop_bounds(&self) -> &[LoopBound] {
        &self.loop_bounds
    }

    /// Software-pipelined loop records in program order.
    pub fn pipe_loops(&self) -> &[PipeLoop] {
        &self.pipe_loops
    }

    /// The source-map side table (empty for plain assembly sources).
    pub fn source_info(&self) -> &SourceInfo {
        &self.source
    }

    /// Resolves a word address to `(function name, source line)` using
    /// the source map: the innermost loop's line if the address sits in
    /// a mapped loop region, else the containing function's definition
    /// line.
    pub fn source_at(&self, word_addr: u32) -> Option<(&str, u32)> {
        let func = self.function_at(word_addr)?;
        if let Some(l) = self.source.innermost_loop_at(word_addr) {
            return Some((func.name.as_str(), l.line));
        }
        let line = self.source.func_line(&func.name)?;
        Some((func.name.as_str(), line))
    }

    /// Word address of the entry function.
    pub fn entry_word(&self) -> u32 {
        self.entry_word
    }

    /// The function containing the word address, if any.
    pub fn function_at(&self, word_addr: u32) -> Option<&FuncInfo> {
        self.functions
            .iter()
            .find(|f| word_addr >= f.start_word && word_addr < f.start_word + f.size_words)
    }

    /// The function starting exactly at the word address (call targets).
    pub fn function_starting_at(&self, word_addr: u32) -> Option<&FuncInfo> {
        self.functions.iter().find(|f| f.start_word == word_addr)
    }

    /// Looks up a symbol's value.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Decodes the whole image back into addressed bundles.
    ///
    /// # Errors
    ///
    /// Propagates the first [`DecodeError`]; an image produced by
    /// [`crate::assemble`] always decodes.
    pub fn decode(&self) -> Result<Vec<(u32, Bundle)>, DecodeError> {
        decode_all(&self.code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_with_functions() -> ObjectImage {
        ObjectImage {
            code: vec![0; 10],
            functions: vec![
                FuncInfo {
                    name: "a".into(),
                    start_word: 0,
                    size_words: 4,
                },
                FuncInfo {
                    name: "b".into(),
                    start_word: 4,
                    size_words: 6,
                },
            ],
            ..ObjectImage::default()
        }
    }

    #[test]
    fn function_lookup() {
        let img = image_with_functions();
        assert_eq!(img.function_at(0).map(|f| f.name.as_str()), Some("a"));
        assert_eq!(img.function_at(3).map(|f| f.name.as_str()), Some("a"));
        assert_eq!(img.function_at(4).map(|f| f.name.as_str()), Some("b"));
        assert_eq!(img.function_at(9).map(|f| f.name.as_str()), Some("b"));
        assert_eq!(img.function_at(10), None);
        assert_eq!(
            img.function_starting_at(4).map(|f| f.name.as_str()),
            Some("b")
        );
        assert_eq!(img.function_starting_at(5), None);
    }
}
