//! A blocking HTTP/1.1 client over one keep-alive connection, and a
//! reader for the histograms of a Prometheus scrape.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::stats::bucket_quantile;

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// One round trip; returns the status and the body text.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let text = std::str::from_utf8(&self.buf[head_end..head_end + length])
            .map_err(|_| bad("non-UTF-8 body"))?;
        Ok((status, text.to_string()))
    }
}

/// Quantile `q`, in seconds, of histogram `name` restricted to the
/// samples carrying label `label` (e.g. `route="labels"`), read from
/// Prometheus exposition text and interpolated within its bucket. The
/// `+Inf` bucket holds nothing the finite ones do not.
pub fn prom_quantile(text: &str, name: &str, label: &str, q: f64) -> f64 {
    let prefix = format!("{name}_bucket{{");
    let mut buckets = Vec::new();
    let mut below = 0.0;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix).filter(|r| r.contains(label)) else {
            continue;
        };
        let le = rest.split("le=\"").nth(1).and_then(|r| r.split('"').next());
        let cumulative = line
            .rsplit_once(' ')
            .and_then(|(_, v)| v.parse::<f64>().ok());
        if let (Some(Ok(le)), Some(cumulative)) = (le.map(str::parse::<f64>), cumulative) {
            if !le.is_finite() {
                continue;
            }
            buckets.push((le, cumulative - below));
            below = cumulative;
        }
    }
    bucket_quantile(&buckets, q)
}
