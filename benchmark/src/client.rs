//! A minimal keep-alive HTTP/1.1 client for the serve loop.
//!
//! On request it keeps every request head it sends, so the traced run can
//! time the server's request-head parser over exactly the heads the loop
//! produced.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    host: String,
    tenant: String,
    buf: Vec<u8>,
    /// Every request head sent, in order, when recording.
    pub heads: Option<Vec<Vec<u8>>>,
}

impl Client {
    /// Connects to `addr` as `tenant`, keeping the heads it sends when
    /// `record_heads` is set.
    pub fn connect(addr: &str, tenant: &str, record_heads: bool) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            host: addr.to_string(),
            tenant: tenant.to_string(),
            buf: Vec::new(),
            heads: record_heads.then(Vec::new),
        })
    }

    /// Sends one request and reads its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nX-Qcm-Tenant: {}\r\n\
             Content-Length: {}\r\n\r\n",
            self.host,
            self.tenant,
            body.len()
        );
        let mut message = head.clone().into_bytes();
        message.extend_from_slice(body.as_bytes());
        self.stream.write_all(&message)?;
        if let Some(heads) = &mut self.heads {
            heads.push(head.into_bytes());
        }
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid(format!("bad status line in {head:?}")))?;
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| invalid(format!("no content-length in {head:?}")))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).to_string();
        self.buf.drain(..head_end + length);
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed mid-response".to_string()));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
