//! Wire encoding: text command lines plus length-prefixed binary
//! payloads, in the spirit of the real Chirp protocol.
//!
//! A command is one line of space-separated words ending in `\n`.
//! Words that may contain arbitrary bytes (paths, principals) are
//! percent-encoded. Bulk data follows a line announcing its length.

use idbox_obs::TraceId;
use idbox_types::{Errno, SysResult};
use std::io::{BufRead, Read, Write};

/// Maximum accepted line length (matches PATH_MAX plus slack).
pub const LINE_MAX: usize = 8192;

/// Maximum accepted payload (64 MiB).
pub const PAYLOAD_MAX: u64 = 64 << 20;

/// Percent-encode a word: `%`, whitespace, control bytes, and all
/// non-ASCII bytes become `%XX`, so any UTF-8 string crosses the wire
/// intact inside a space-separated command line.
pub fn encode_word(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b' ' | b'\t' | b'\r' | b'\n' => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
            0x21..=0x7E => out.push(b as char),
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// Decode a percent-encoded word.
pub fn decode_word(s: &str) -> SysResult<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).ok_or(Errno::EPROTO)?;
            let hi = (hex[0] as char).to_digit(16).ok_or(Errno::EPROTO)?;
            let lo = (hex[1] as char).to_digit(16).ok_or(Errno::EPROTO)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| Errno::EPROTO)
}

/// Read one `\n`-terminated line (without the terminator).
///
/// Bounded: at most `LINE_MAX + 1` bytes are ever buffered. A peer
/// streaming an endless newline-less line is rejected with `EPROTO`
/// after that bound instead of growing the buffer without limit.
pub fn read_line(r: &mut impl BufRead) -> SysResult<String> {
    let mut line = Vec::new();
    let n = r
        .take(LINE_MAX as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(|_| Errno::EIO)?;
    if n == 0 {
        return Err(Errno::EPIPE);
    }
    if n > LINE_MAX {
        return Err(Errno::EPROTO);
    }
    let mut line = String::from_utf8(line).map_err(|_| Errno::EPROTO)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Write one line.
pub fn write_line(w: &mut impl Write, line: &str) -> SysResult<()> {
    w.write_all(line.as_bytes()).map_err(|_| Errno::EPIPE)?;
    w.write_all(b"\n").map_err(|_| Errno::EPIPE)?;
    w.flush().map_err(|_| Errno::EPIPE)
}

/// Read an exact-length payload. The bytes land in the buffer's spare
/// capacity (`take(len).read_to_end`, as the server's framer does), so
/// the buffer is not zero-filled first; a stream that ends short is
/// `EPIPE`.
pub fn read_payload(r: &mut impl Read, len: u64) -> SysResult<Vec<u8>> {
    if len > PAYLOAD_MAX {
        return Err(Errno::EPROTO);
    }
    let mut buf = Vec::with_capacity(len as usize);
    match r.take(len).read_to_end(&mut buf) {
        Ok(n) if n as u64 == len => Ok(buf),
        _ => Err(Errno::EPIPE),
    }
}

/// The spelling of the optional trace token a client may append as the
/// final word of any command line: `trace=` followed by exactly 16
/// lowercase hex digits.
pub const TRACE_PREFIX: &str = "trace=";

/// Append a trace token to a command line.
pub fn with_trace(line: &str, id: TraceId) -> String {
    format!("{line} {TRACE_PREFIX}{id}")
}

/// Split a trailing trace token off a raw (still percent-encoded)
/// command line. Returns the line without the token, and the id when
/// one was present and well-formed.
///
/// Peers that predate tracing never emit the token and are unaffected;
/// conversely a server that predates tracing sees the token as one
/// extra trailing word, which the fixed-arity commands ignore. The
/// token is only recognized after a preceding word (a command line is
/// never empty) and only with the exact 16-hex spelling, so an
/// ordinary final argument is never eaten by accident.
pub fn strip_trace(line: &str) -> (&str, Option<TraceId>) {
    if let Some(idx) = line.rfind(' ') {
        if let Some(hex) = line[idx + 1..].strip_prefix(TRACE_PREFIX) {
            if let Ok(id) = hex.parse::<TraceId>() {
                return (&line[..idx], Some(id));
            }
        }
    }
    (line, None)
}

/// The spelling of the optional retry token a client appends (before
/// the trace token is stripped, after it in line order) when a request
/// is a re-send of an earlier attempt: `retry=` followed by the attempt
/// number (1 = first retry).
pub const RETRY_PREFIX: &str = "retry=";

/// Append a retry token to a command line. `n` is the retry ordinal
/// (how many attempts preceded this one); zero is never emitted — a
/// first attempt carries no token.
pub fn with_retry(line: &str, n: u32) -> String {
    debug_assert!(n > 0, "first attempts carry no retry token");
    format!("{line} {RETRY_PREFIX}{n}")
}

/// Split a trailing retry token off a raw command line (after
/// [`strip_trace`] has removed the trace token, since the trace token
/// is always last). Returns the line without the token and the retry
/// ordinal when one was present and well-formed.
///
/// Same forward/backward-compatibility posture as [`strip_trace`]: the
/// token is only recognized after a preceding word and only with a
/// nonzero all-digit value of sane length, so an ordinary final
/// argument is never eaten, and servers that predate the token see one
/// ignorable trailing word.
pub fn strip_retry(line: &str) -> (&str, Option<u32>) {
    if let Some(idx) = line.rfind(' ') {
        if let Some(digits) = line[idx + 1..].strip_prefix(RETRY_PREFIX) {
            if !digits.is_empty()
                && digits.len() <= 9
                && digits.bytes().all(|b| b.is_ascii_digit())
            {
                if let Ok(n) = digits.parse::<u32>() {
                    if n > 0 {
                        return (&line[..idx], Some(n));
                    }
                }
            }
        }
    }
    (line, None)
}

/// The spelling of the optional request-id token introduced by wire
/// protocol generation 2: `id=` followed by a nonzero decimal ordinal.
///
/// A pipelining client appends `id=<n>` to each request (before the
/// retry and trace tokens in line order, so it is stripped after them),
/// and the server echoes the same token as the final word of the
/// matching reply line. Requests without an id get strict in-order v1
/// replies with no token, so v1 clients are unaffected, and a v1 server
/// sees the token as one ignorable trailing word.
pub const ID_PREFIX: &str = "id=";

/// Append a request-id token to a command or reply line. Zero is never
/// emitted — an un-pipelined request carries no token.
pub fn with_id(line: &str, id: u64) -> String {
    debug_assert!(id > 0, "request ids are 1-based");
    format!("{line} {ID_PREFIX}{id}")
}

/// Split a trailing request-id token off a raw line (after
/// [`strip_trace`] and [`strip_retry`] on requests; replies carry the
/// id token last and alone). Returns the line without the token and the
/// id when one was present and well-formed.
///
/// Same compatibility posture as [`strip_retry`]: recognized only after
/// a preceding word and only with a nonzero all-digit value of sane
/// length, so an ordinary final argument is never eaten.
pub fn strip_id(line: &str) -> (&str, Option<u64>) {
    if let Some(idx) = line.rfind(' ') {
        if let Some(digits) = line[idx + 1..].strip_prefix(ID_PREFIX) {
            if !digits.is_empty()
                && digits.len() <= 18
                && digits.bytes().all(|b| b.is_ascii_digit())
            {
                if let Ok(n) = digits.parse::<u64>() {
                    if n > 0 {
                        return (&line[..idx], Some(n));
                    }
                }
            }
        }
    }
    (line, None)
}

/// Split a command line into decoded words.
pub fn split_words(line: &str) -> SysResult<Vec<String>> {
    line.split(' ')
        .filter(|w| !w.is_empty())
        .map(decode_word)
        .collect()
}

/// Format an `ok` response carrying a numeric result.
pub fn ok_num(n: i64) -> String {
    format!("ok {n}")
}

/// Format an `error` response from an errno.
pub fn error_line(e: Errno) -> String {
    format!("error {}", e.code())
}

/// Parse a response line: `Ok(words-after-ok)` or the carried errno.
pub fn parse_response(line: &str) -> SysResult<Vec<String>> {
    let words: Vec<&str> = line.split(' ').filter(|w| !w.is_empty()).collect();
    match words.first() {
        Some(&"ok") => words[1..].iter().map(|w| decode_word(w)).collect(),
        Some(&"error") => {
            let code: i32 = words
                .get(1)
                .and_then(|w| w.parse().ok())
                .ok_or(Errno::EPROTO)?;
            Err(Errno::from_code(code).unwrap_or(Errno::EIO))
        }
        _ => Err(Errno::EPROTO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        for s in [
            "plain",
            "/path/with spaces/file",
            "globus:/O=Univ Nowhere/CN=Fred",
            "100%",
            "tab\there",
            "nl\nhere",
        ] {
            let enc = encode_word(s);
            assert!(!enc.contains(' ') && !enc.contains('\n'), "{enc}");
            assert_eq!(decode_word(&enc).unwrap(), s);
        }
    }

    #[test]
    fn malformed_percent_rejected() {
        assert!(decode_word("%").is_err());
        assert!(decode_word("%2").is_err());
        assert!(decode_word("%zz").is_err());
    }

    #[test]
    fn line_io_roundtrip() {
        let mut buf = Vec::new();
        write_line(&mut buf, "hello world").unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_line(&mut r).unwrap(), "hello world");
        assert_eq!(read_line(&mut r), Err(Errno::EPIPE));
    }

    #[test]
    fn short_payload_is_epipe_and_reads_stop_at_the_length() {
        let wire = b"0123456789rest";
        let mut r = &wire[..];
        assert_eq!(read_payload(&mut r, 10).unwrap(), b"0123456789");
        assert_eq!(r, b"rest", "the bytes after the payload stay unread");
        assert_eq!(read_payload(&mut r, 0).unwrap(), b"");
        // The stream ends before the announced length.
        assert_eq!(read_payload(&mut r, 5), Err(Errno::EPIPE));
    }

    #[test]
    fn oversized_line_rejected_with_bounded_consumption() {
        /// An endless stream of `a` bytes with no newline in sight,
        /// counting how much is ever pulled off the wire.
        struct Endless {
            served: usize,
        }
        impl std::io::Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                for b in buf.iter_mut() {
                    *b = b'a';
                }
                self.served += buf.len();
                Ok(buf.len())
            }
        }
        let mut r = std::io::BufReader::new(Endless { served: 0 });
        assert_eq!(read_line(&mut r), Err(Errno::EPROTO));
        // The reader stops at LINE_MAX + 1 bytes; the BufReader beneath
        // may have read ahead by at most its own buffer. Nothing close
        // to "the whole stream" is ever consumed or held.
        assert!(
            r.get_ref().served <= 3 * LINE_MAX,
            "consumed {} bytes",
            r.get_ref().served
        );
    }

    #[test]
    fn line_at_the_limit_still_accepted() {
        // Content + '\n' totalling exactly LINE_MAX passes; one byte
        // more is EPROTO.
        let ok_line = vec![b'x'; LINE_MAX - 1];
        let mut buf = ok_line.clone();
        buf.push(b'\n');
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_line(&mut r).unwrap().len(), LINE_MAX - 1);
        let mut buf = vec![b'x'; LINE_MAX];
        buf.push(b'\n');
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_line(&mut r), Err(Errno::EPROTO));
    }

    #[test]
    fn payload_roundtrip_and_cap() {
        let data = vec![9u8; 100];
        let mut r = std::io::Cursor::new(data.clone());
        assert_eq!(read_payload(&mut r, 100).unwrap(), data);
        let mut r = std::io::Cursor::new(vec![0u8; 10]);
        assert_eq!(read_payload(&mut r, PAYLOAD_MAX + 1), Err(Errno::EPROTO));
    }

    #[test]
    fn response_parsing() {
        assert_eq!(parse_response("ok 42").unwrap(), ["42"]);
        assert_eq!(parse_response("ok").unwrap(), Vec::<String>::new());
        assert_eq!(parse_response("error 13"), Err(Errno::EACCES));
        assert_eq!(parse_response("gibberish"), Err(Errno::EPROTO));
        assert_eq!(parse_response("error notanumber"), Err(Errno::EPROTO));
    }

    #[test]
    fn split_words_decodes() {
        let words = split_words("open /a%20b 3").unwrap();
        assert_eq!(words, ["open", "/a b", "3"]);
    }

    #[test]
    fn trace_token_round_trips() {
        let id = idbox_obs::next_trace_id();
        let line = with_trace("stat /a", id);
        assert_eq!(line, format!("stat /a trace={id}"));
        assert_eq!(strip_trace(&line), ("stat /a", Some(id)));
    }

    #[test]
    fn retry_token_round_trips() {
        let line = with_retry("stat /a", 2);
        assert_eq!(line, "stat /a retry=2");
        assert_eq!(strip_retry(&line), ("stat /a", Some(2)));
        // Stacked with a trace token: trace strips first, retry second.
        let id = idbox_obs::next_trace_id();
        let full = with_trace(&with_retry("stat /a", 1), id);
        let (rest, got_id) = strip_trace(&full);
        assert_eq!(got_id, Some(id));
        assert_eq!(strip_retry(rest), ("stat /a", Some(1)));
    }

    #[test]
    fn strip_retry_leaves_ordinary_lines_alone() {
        assert_eq!(strip_retry("stat /a"), ("stat /a", None));
        // A lone token with no preceding command is not stripped.
        assert_eq!(strip_retry("retry=1"), ("retry=1", None));
        // Zero, non-digits, and absurd lengths stay in place.
        for bad in [
            "stat /a retry=0",
            "stat /a retry=",
            "stat /a retry=x",
            "stat /a retry=1x",
            "stat /a retry=1234567890",
        ] {
            assert_eq!(strip_retry(bad), (bad, None));
        }
        // A final argument that merely resembles the prefix survives.
        assert_eq!(strip_retry("put retry=x 3"), ("put retry=x 3", None));
    }

    #[test]
    fn id_token_round_trips() {
        let line = with_id("stat /a", 7);
        assert_eq!(line, "stat /a id=7");
        assert_eq!(strip_id(&line), ("stat /a", Some(7)));
        // Full v2 stacking on a request: id, then retry, then trace
        // last-on-wire; stripping runs in reverse wire order.
        let trace = idbox_obs::next_trace_id();
        let full = with_trace(&with_retry(&with_id("stat /a", 3), 1), trace);
        let (rest, got_trace) = strip_trace(&full);
        assert_eq!(got_trace, Some(trace));
        let (rest, got_retry) = strip_retry(rest);
        assert_eq!(got_retry, Some(1));
        assert_eq!(strip_id(rest), ("stat /a", Some(3)));
    }

    #[test]
    fn strip_id_leaves_ordinary_lines_alone() {
        assert_eq!(strip_id("stat /a"), ("stat /a", None));
        // A lone token with no preceding command is not stripped.
        assert_eq!(strip_id("id=1"), ("id=1", None));
        for bad in [
            "stat /a id=0",
            "stat /a id=",
            "stat /a id=x",
            "stat /a id=1x",
            "stat /a id=1234567890123456789",
        ] {
            assert_eq!(strip_id(bad), (bad, None));
        }
        // A final argument that merely resembles the prefix survives.
        assert_eq!(strip_id("put id=x 3"), ("put id=x 3", None));
    }

    #[test]
    fn strip_trace_leaves_ordinary_lines_alone() {
        // No token at all.
        assert_eq!(strip_trace("stat /a"), ("stat /a", None));
        // A lone token with no preceding command is not stripped.
        assert_eq!(
            strip_trace("trace=00000000000000ab"),
            ("trace=00000000000000ab", None)
        );
        // Malformed ids (wrong length, uppercase, zero) stay in place.
        for bad in [
            "stat /a trace=123",
            "stat /a trace=00000000000000AB",
            "stat /a trace=0000000000000000",
            "stat /a trace=000000000000000g",
        ] {
            assert_eq!(strip_trace(bad), (bad, None));
        }
        // A final argument that merely resembles the prefix survives.
        assert_eq!(strip_trace("put trace=x 3"), ("put trace=x 3", None));
    }
}
