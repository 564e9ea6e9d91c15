//! The line-framed client protocol spoken over the unix socket.
//!
//! One request per line, one response per request; payloads are
//! hex-encoded so the framing stays printable and a session can be
//! driven from a script file (`hvraid connect --script`). Verbs:
//!
//! ```text
//! HELLO <tenant> <reader|writer|mixed>   -> OK session <id> elements <n> element_size <b>
//! READ <addr> <len>                      -> OK data <hex>
//! WRITE <addr> <hex>                     -> OK wrote <elements>
//! FLUSH                                  -> OK flushed
//! STATS                                  -> OK stats <lines>   (then that many metric lines)
//! QUIT                                   -> OK bye             (closes the connection)
//! SHUTDOWN                               -> OK shutdown        (drains, flushes, stops the server)
//! ```
//!
//! Errors come back as a single `ERR <kind>: <detail>` line; `ERR busy`
//! and `ERR throttled` are retryable backpressure, everything else is a
//! hard failure for that request.

use crate::scheduler::{ServiceError, TenantClass};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open the session: tenant label + traffic class.
    Hello {
        /// Tenant label (metrics dimension).
        tenant: String,
        /// Declared traffic class.
        class: TenantClass,
    },
    /// Read `len` elements at `addr`.
    Read {
        /// First element.
        addr: usize,
        /// Element count.
        len: usize,
    },
    /// Write the decoded payload at `addr`.
    Write {
        /// First element.
        addr: usize,
        /// Raw bytes (multiple of the element size).
        data: Vec<u8>,
    },
    /// Flush dirty cached stripes.
    Flush,
    /// Fetch the Prometheus metrics snapshot.
    Stats,
    /// Close this connection.
    Quit,
    /// Drain, flush, and stop the whole server.
    Shutdown,
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`HEX_VALUE`].
const NOT_HEX: u8 = 0xff;

/// Each byte's hex-digit value (either case), or [`NOT_HEX`].
const HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Appends `bytes` to `out` as lower-case hex.
pub fn push_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.extend_from_slice(&[HEX_DIGITS[usize::from(b >> 4)], HEX_DIGITS[usize::from(b & 0xf)]]);
    }
}

/// Encodes bytes as lower-case hex.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = Vec::new();
    push_hex(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decodes lower- or upper-case hex.
///
/// # Errors
///
/// Returns a message on odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    decode_hex(s.as_bytes())
}

fn decode_hex(hex: &[u8]) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err(format!("hex payload has odd length {}", hex.len()));
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.chunks_exact(2) {
        let (hi, lo) = (HEX_VALUE[usize::from(pair[0])], HEX_VALUE[usize::from(pair[1])]);
        if (hi | lo) > 0xf {
            let bad = if hi > 0xf { pair[0] } else { pair[1] };
            return Err(format!("bad hex digit {:?}", char::from(bad)));
        }
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a user-facing message on an unknown verb or malformed
/// arguments.
pub fn parse(line: &str) -> Result<Request, String> {
    parse_bytes(line.as_bytes())
}

/// [`parse`] over raw bytes, as they come off the socket. A `WRITE` is
/// split into verb, address and payload, and the payload is hex-decoded
/// in place — it is never scanned for whitespace, copied, or checked as
/// UTF-8 first.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_bytes(line: &[u8]) -> Result<Request, String> {
    let line = line.trim_ascii();
    let (verb, rest) = split_word(line);
    if verb.eq_ignore_ascii_case(b"WRITE") {
        let (addr, payload) = split_word(rest.trim_ascii_start());
        if addr.is_empty() {
            return Err("WRITE: missing <addr>".to_string());
        }
        let payload = payload.trim_ascii_start();
        if payload.is_empty() {
            return Err("WRITE: missing <hex-payload>".to_string());
        }
        let addr = parse_usize(&String::from_utf8_lossy(addr))?;
        return Ok(Request::Write { addr, data: decode_hex(payload)? });
    }
    let line = std::str::from_utf8(line).map_err(|_| "request is not UTF-8".to_string())?;
    let mut parts = line.split_whitespace();
    let verb = parts.next().ok_or("empty request")?;
    let mut arg = |name: &str| {
        parts.next().map(str::to_string).ok_or_else(|| format!("{verb}: missing <{name}>"))
    };
    let req = match verb.to_ascii_uppercase().as_str() {
        "HELLO" => {
            let tenant = arg("tenant")?;
            let class_s = arg("class")?;
            let class = TenantClass::parse(&class_s)
                .ok_or_else(|| format!("unknown class {class_s:?} (reader|writer|mixed)"))?;
            Request::Hello { tenant, class }
        }
        "READ" => {
            let addr = parse_usize(&arg("addr")?)?;
            let len = parse_usize(&arg("len")?)?;
            Request::Read { addr, len }
        }
        "FLUSH" => Request::Flush,
        "STATS" => Request::Stats,
        "QUIT" => Request::Quit,
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(format!("unknown verb {other:?}")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("{verb}: unexpected trailing argument {extra:?}"));
    }
    Ok(req)
}

/// Splits off the first whitespace-delimited word: `(word, rest)`, with
/// `rest` starting at the delimiter.
fn split_word(s: &[u8]) -> (&[u8], &[u8]) {
    let end = s.iter().position(u8::is_ascii_whitespace).unwrap_or(s.len());
    s.split_at(end)
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("expected a non-negative integer, got {s:?}"))
}

/// Renders a [`ServiceError`] as the protocol's `ERR` line.
#[must_use]
pub fn err_line(e: &ServiceError) -> String {
    match e {
        ServiceError::Busy { queued } => format!("ERR busy: {queued} ops queued"),
        ServiceError::Throttled { wanted, available } => {
            format!("ERR throttled: cost {wanted} elements, bucket {available}")
        }
        ServiceError::Volume(v) => format!("ERR volume: {v}"),
        ServiceError::BadRequest(m) => format!("ERR bad-request: {m}"),
        ServiceError::Closed => "ERR closed: service shut down".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
        assert!(from_hex("0g").is_err());
        assert!(from_hex("\u{e9}0").is_err(), "non-ASCII bytes are not hex digits");
    }

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse("HELLO t0 writer").unwrap(),
            Request::Hello { tenant: "t0".into(), class: TenantClass::Writer }
        );
        assert_eq!(parse("read 3 2").unwrap(), Request::Read { addr: 3, len: 2 });
        assert_eq!(parse("WRITE 7 00ff").unwrap(), Request::Write { addr: 7, data: vec![0, 255] });
        assert_eq!(parse("FLUSH").unwrap(), Request::Flush);
        assert_eq!(parse("STATS").unwrap(), Request::Stats);
        assert_eq!(parse("QUIT").unwrap(), Request::Quit);
        assert_eq!(parse("SHUTDOWN").unwrap(), Request::Shutdown);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("HELLO t0 admin").is_err());
        assert!(parse("READ 1").is_err());
        assert!(parse("READ 1 2 3").is_err());
        assert!(parse("WRITE x 00").is_err());
        assert!(parse("WRITE 1").is_err());
        assert!(parse("WRITE 1 00 ff").is_err(), "one payload word only");
        assert!(parse("NOPE").is_err());
    }

    #[test]
    fn write_tolerates_extra_whitespace_and_case() {
        let want = Request::Write { addr: 7, data: vec![0xab, 0xcd] };
        assert_eq!(parse("  write\t7   ABcd \r").unwrap(), want);
        assert_eq!(parse_bytes(b"WRITE 7 abcd\n").unwrap(), want);
    }

    #[test]
    fn err_lines_are_single_line() {
        let e = ServiceError::Busy { queued: 9 };
        assert_eq!(err_line(&e), "ERR busy: 9 ops queued");
        assert!(!err_line(&ServiceError::BadRequest("x\ny".into())).starts_with("OK"));
    }
}
