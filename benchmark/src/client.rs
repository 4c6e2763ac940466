//! The benchmark's TCP client, kept out of the measurement's way: the
//! numbers are to be the server's, not the load generator's.
//!
//! Every connection is persistent, has `TCP_NODELAY` set, and sends each
//! request line with a single `write_all`, so the client never adds a
//! Nagle or delayed-ACK stall of its own.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    /// Dials `addr`, retrying while the listener is still coming up.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let give_up = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= give_up => {
                    return Err(format!("cannot connect to {addr}: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let io = |e: std::io::Error| format!("socket set-up on {addr}: {e}");
        stream.set_nodelay(true).map_err(io)?;
        // A hung server must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        Ok(Self {
            stream,
            reader,
            reply: String::new(),
        })
    }

    /// Sends one newline-terminated request line and waits for the reply
    /// line; returns the reply and the time from first byte out to last
    /// byte in.
    pub fn call(&mut self, line: &str) -> Result<(&str, Duration), String> {
        debug_assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
        let start = Instant::now();
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        let n = self
            .reader
            .read_line(&mut self.reply)
            .map_err(|e| format!("receive: {e}"))?;
        let took = start.elapsed();
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok((self.reply.trim_end(), took))
    }
}
