//! The workspace-wide error type.
//!
//! One concrete [`Error`] replaces the per-binary ad-hoc enums: a coarse
//! [`ErrorKind`] (which doubles as the process exit code), a human
//! context line, and an optional boxed source preserving the full typed
//! cause chain (e.g. a `darshan::ParseError` stays downcastable).

use std::fmt;

/// Coarse classification of a failure; maps to a BSD-sysexits-style
/// process exit code via [`Error::exit_code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Filesystem or stream I/O failed.
    Io,
    /// Input data was structurally invalid (bad log, bad manifest, …).
    Parse,
    /// The invocation itself was wrong (flags, paths, ranges).
    Usage,
    /// An internal invariant failed.
    Internal,
}

impl ErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Io => "io",
            ErrorKind::Parse => "parse",
            ErrorKind::Usage => "usage",
            ErrorKind::Internal => "internal",
        }
    }
}

/// The unified workspace error: kind + context + optional source chain.
pub struct Error {
    kind: ErrorKind,
    context: String,
    source: Option<Box<dyn std::error::Error + Send + Sync + 'static>>,
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// An error with no underlying cause.
    pub fn new(kind: ErrorKind, context: impl Into<String>) -> Self {
        Self { kind, context: context.into(), source: None }
    }

    /// Attach an underlying cause.
    pub(crate) fn with_source(
        mut self,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        self.source = Some(Box::new(source));
        self
    }

    /// Shorthand for an I/O failure while doing `context`.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Self::new(ErrorKind::Io, context).with_source(source)
    }

    /// A failed write to stdout (a closed pipe, a full disk): what a tool
    /// ends with where `println!` would panic.
    pub fn stdout(source: std::io::Error) -> Self {
        Self::io("writing stdout", source)
    }

    /// Shorthand for a parse failure while doing `context`.
    pub fn parse(
        context: impl Into<String>,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        Self::new(ErrorKind::Parse, context).with_source(source)
    }

    /// Shorthand for a bad invocation.
    pub fn usage(context: impl Into<String>) -> Self {
        Self::new(ErrorKind::Usage, context)
    }

    /// The failure classification.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The context line (without the cause chain).
    pub fn context(&self) -> &str {
        &self.context
    }

    /// Prefix the context with what the caller was doing when the error
    /// surfaced, keeping the kind and the cause chain. The idiom for
    /// propagating another crate's error across a boundary:
    /// `.map_err(|e| e.wrap("while tuning the grid"))?`.
    pub fn wrap(mut self, outer: impl Into<String>) -> Self {
        self.context = format!("{}: {}", outer.into(), self.context);
        self
    }

    /// The process exit code this failure maps to (sysexits-inspired).
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Usage => 64,    // EX_USAGE
            ErrorKind::Parse => 65,    // EX_DATAERR
            ErrorKind::Io => 74,       // EX_IOERR
            ErrorKind::Internal => 70, // EX_SOFTWARE
        }
    }

    /// The full `context: cause: cause` chain as one line.
    pub(crate) fn render_chain(&self) -> String {
        let mut out = self.context.clone();
        let mut cause: Option<&(dyn std::error::Error + 'static)> =
            self.source.as_deref().map(|s| s as _);
        while let Some(c) = cause {
            out.push_str(": ");
            out.push_str(&c.to_string());
            cause = c.source();
        }
        out
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_chain())
    }
}

// `fn main() -> Result<(), Error>` prints the error with `Debug`; render
// the readable chain there instead of a struct dump.
impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.as_str(), self.render_chain())
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_deref().map(|s| s as _)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::io("i/o operation failed", e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_renders_through_all_causes() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        let err = Error::io("reading trace manifest", io);
        assert_eq!(err.render_chain(), "reading trace manifest: no such file");
        assert_eq!(err.kind(), ErrorKind::Io);
        assert_eq!(err.exit_code(), 74);
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn debug_is_human_readable() {
        let err = Error::usage("unknown flag --frobnicate");
        assert_eq!(format!("{err:?}"), "[usage] unknown flag --frobnicate");
        assert_eq!(err.exit_code(), 64);
    }
}
