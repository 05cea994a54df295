//! A blocking client for the serve protocol, used by `nggc client` and
//! the test suite.

use crate::protocol::{read_frame, write_frame, ClientRequest, ServerReply};
use std::io;
use std::net::TcpStream;

/// One connection to a running `nggc serve`.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7781`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Send one request and wait for its reply.
    pub fn request(&mut self, request: &ClientRequest) -> io::Result<ServerReply> {
        write_frame(&mut self.stream, request)?;
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        serde_json::from_slice(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Run a GMQL query with optional per-request limits.
    pub fn query(
        &mut self,
        text: &str,
        timeout_ms: Option<u64>,
        max_memory: Option<u64>,
        head: usize,
    ) -> io::Result<ServerReply> {
        self.query_full(text, timeout_ms, max_memory, head, false)
    }

    /// [`Client::query`] with explicit control over the server result
    /// cache: `no_cache` forces execution even when a cached result for
    /// the same plan exists.
    pub fn query_full(
        &mut self,
        text: &str,
        timeout_ms: Option<u64>,
        max_memory: Option<u64>,
        head: usize,
        no_cache: bool,
    ) -> io::Result<ServerReply> {
        self.request(&ClientRequest::Query {
            text: text.to_owned(),
            timeout_ms,
            max_memory,
            head,
            no_cache,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<ServerReply> {
        self.request(&ClientRequest::Ping)
    }

    /// Server counters snapshot.
    pub fn stats(&mut self) -> io::Result<ServerReply> {
        self.request(&ClientRequest::Stats)
    }
}
