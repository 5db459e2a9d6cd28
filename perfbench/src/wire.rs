//! What the benchmark needs on the client side beyond
//! `ppdt_serve::http::request`: a streaming chunked-encode call that
//! writes and reads at once, and `/metrics` reads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ppdt_serve::server::MetricsBody;

/// `POST` with a chunked body whose first line is `header_line` and
/// whose rest is `csv`, reading the chunked answer while the body is
/// still going up (a writer thread feeds the socket, so neither side
/// can stall on a full buffer). Returns the status and the de-chunked
/// answer.
pub fn stream_call(
    addr: SocketAddr,
    path: &str,
    header_line: &str,
    csv: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n"
    );
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<()> {
            writer.write_all(head.as_bytes())?;
            let first = format!("{header_line}\n");
            ppdt_serve::http::write_chunk(&mut writer, first.as_bytes())?;
            for piece in csv.chunks(64 * 1024) {
                ppdt_serve::http::write_chunk(&mut writer, piece)?;
            }
            ppdt_serve::http::finish_chunked(&mut writer)?;
            writer.flush()
        });
        let answer = read_stream_response(&stream);
        let sent = sender.join().expect("stream writer thread panicked");
        let answer = answer?;
        sent.map_err(|e| format!("send: {e}"))?;
        Ok(answer)
    })
}

fn read_stream_response(stream: &TcpStream) -> Result<(u16, Vec<u8>), String> {
    let mut reader = BufReader::with_capacity(256 * 1024, stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("read status: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let (mut chunked, mut length) = (false, 0usize);
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(|e| format!("read head: {e}"))?;
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((name, value)) = l.split_once(':') {
            if name.trim().eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.trim().eq_ignore_ascii_case("chunked");
            } else if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|e| format!("content-length: {e}"))?;
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        ppdt_serve::http::ChunkedReader::new(&mut reader)
            .read_to_end(&mut body)
            .map_err(|e| format!("read chunked body: {e}"))?;
    } else {
        body.resize(length, 0);
        reader.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
    }
    Ok((status, body))
}

/// The daemon's `/metrics` body.
pub fn metrics(addr: SocketAddr) -> MetricsBody {
    let (status, text) =
        ppdt_serve::http::request(addr, "GET", "/metrics", "").expect("GET /metrics");
    assert_eq!(status, 200, "/metrics answered {status}");
    serde_json::from_str(&text).expect("/metrics body parses")
}

/// A process counter from a `/metrics` body, by name.
pub fn counter(m: &MetricsBody, name: &str) -> u64 {
    m.process.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}
