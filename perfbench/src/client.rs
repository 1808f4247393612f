//! The server under test and the closed-loop client that drives it over
//! loopback TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a client waits for any one response before failing the run.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// `kn serve --workers`. On a 2-core machine one worker leaves the second
/// core to the client, the server's connection thread and the system, so
/// the worker never shares its core with the load generator or another
/// worker.
pub const SERVER_WORKERS: usize = 1;

/// A `kn serve --listen` child process. Dropping it kills the process and
/// waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `kn serve --listen 127.0.0.1:0 --workers 1` and wait for its
    /// `listening on ADDR` line.
    pub fn spawn(kn: &Path, cache_capacity: usize) -> Result<Server, String> {
        let mut child = Command::new(kn)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--workers", &SERVER_WORKERS.to_string()])
            .args(["--cache-capacity", &cache_capacity.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", kn.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            let mut line = String::new();
            let read = out.read_line(&mut line);
            let _ = tx.send(());
            (read, line, out)
        });
        if rx.recv_timeout(Duration::from_secs(20)).is_err() {
            let _ = child.kill();
        }
        let (read, line, stdout) = reader.join().expect("stdout reader does not panic");
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: stdout,
        };
        let addr = match read {
            Ok(n) if n > 0 => line
                .strip_prefix("listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        server.addr = addr.ok_or_else(|| format!("server did not report an address: {line:?}"))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `Some(status)` once the process has exited.
    pub fn exited(&mut self) -> Option<std::process::ExitStatus> {
        self.child.try_wait().ok().flatten()
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// One `health` line on a fresh connection.
    pub fn health(&self) -> Result<String, String> {
        let mut c = Conn::open(self.addr).map_err(|e| format!("health connect: {e}"))?;
        c.send("health").map_err(|e| format!("health send: {e}"))?;
        c.recv().map_err(|e| format!("health read: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An unsigned field of a flat JSON line (`"key": 12`).
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One client connection speaking the line protocol.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            w: s.try_clone()?,
            r: BufReader::new(s),
        })
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.w.write_all(&buf)
    }

    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.r.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(line)
    }
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the seeded request sequence, and the response id the
    /// server must use: the request's sequence number on its connection.
    pub index: u64,
    /// When the request was sent and its answer read, in ns from the
    /// start of the run.
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub response: String,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.sent_ns)
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Send `lines` pipelined over two connections and return the responses.
pub fn send_all(addr: SocketAddr, lines: &[String]) -> Result<Vec<String>, String> {
    let halves: Vec<Vec<&String>> = (0..2)
        .map(|c| lines.iter().skip(c).step_by(2).collect())
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = halves
            .iter()
            .map(|half| {
                s.spawn(move || -> Result<Vec<String>, String> {
                    let mut c = Conn::open(addr).map_err(io_err("connect"))?;
                    for l in half {
                        c.send(l).map_err(io_err("send"))?;
                    }
                    half.iter()
                        .map(|_| c.recv().map_err(io_err("read")))
                        .collect()
                })
            })
            .collect();
        let mut out = Vec::new();
        for h in handles {
            out.extend(h.join().expect("client thread does not panic")?);
        }
        Ok(out)
    })
}

/// Closed loop: one client on one connection sends request `i` (the
/// line `line(i)`) as soon as request `i - 1` is answered, until `dur`
/// has passed.
pub fn closed_loop(
    addr: SocketAddr,
    line: impl Fn(u64) -> String,
    dur: Duration,
) -> Result<Vec<Sample>, String> {
    let mut c = Conn::open(addr).map_err(io_err("connect"))?;
    let mut out = Vec::new();
    let start = Instant::now();
    for index in 0.. {
        if start.elapsed() >= dur {
            break;
        }
        let line = line(index);
        let sent_ns = start.elapsed().as_nanos() as u64;
        c.send(&line).map_err(io_err("send"))?;
        let response = c.recv().map_err(io_err("read"))?;
        out.push(Sample {
            index,
            sent_ns,
            recv_ns: start.elapsed().as_nanos() as u64,
            response,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub server that takes 5 ms per request: the client sends the
    /// next request only once the last is answered, numbers requests and
    /// ids in order, and times each from send to answer.
    #[test]
    fn closed_loop_sends_one_request_at_a_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut w = s;
            let mut line = String::new();
            for i in 0.. {
                line.clear();
                if r.read_line(&mut line).unwrap_or(0) == 0 {
                    return i;
                }
                assert_eq!(line, format!("req {i}\n"));
                std::thread::sleep(Duration::from_millis(5));
                w.write_all(format!("{{\"id\": {i}}}\n").as_bytes())
                    .unwrap();
            }
            unreachable!()
        });
        let samples = closed_loop(addr, |i| format!("req {i}"), Duration::from_millis(60)).unwrap();
        assert_eq!(server.join().unwrap(), samples.len());
        assert!((3..=13).contains(&samples.len()), "{}", samples.len());
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.index, k as u64);
            assert_eq!(s.response, format!("{{\"id\": {k}}}"));
            assert!(s.latency_ns() >= 5_000_000, "send to answer");
        }
        assert!(samples.windows(2).all(|p| p[1].sent_ns >= p[0].recv_ns));
    }

    #[test]
    fn json_fields_parse() {
        let h = "{\"id\": 0, \"replaced_workers\": 3, \"cache_hits\": 120}";
        assert_eq!(json_u64(h, "replaced_workers"), Some(3));
        assert_eq!(json_u64(h, "cache_hits"), Some(120));
        assert_eq!(json_u64(h, "missing"), None);
    }
}
