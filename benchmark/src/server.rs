//! The server under test: this binary re-executing itself in `serve` mode,
//! which does nothing but call `viewseeker_server::serve_app`.
//!
//! Fixed conditions, identical on every commit: `ServerConfig::default()`
//! except the address (port 0), `log_level: Off`, and — when a data
//! directory is given — `data_dir` plus an 8 MiB catalog cache.
//! `VIEWSEEKER_THREADS` is removed from the child's environment, so the
//! shipped default thread count is what is measured.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use viewseeker_net::http1::{parse_response, ParsedResponse};
use viewseeker_server::{serve_app, LogLevel, ServerConfig};

/// Catalog cache budget of the disk-backed workload: smaller than the
/// stored tables together, so the cache both hits and evicts.
pub const CATALOG_MEM_BUDGET: u64 = 8 << 20;

/// The configuration every server child runs with.
pub fn server_config(data_dir: Option<&Path>) -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        log_level: LogLevel::Off,
        ..ServerConfig::default()
    };
    if let Some(dir) = data_dir {
        config.data_dir = Some(dir.to_path_buf());
        config.catalog_mem_budget = CATALOG_MEM_BUDGET;
    }
    config
}

/// `serve` mode: start the server, print the bound address, and serve until
/// stdin closes (the parent died or dropped the pipe) or the parent kills
/// this process.
pub fn serve_main(data_dir: Option<PathBuf>) -> io::Result<()> {
    let handle = serve_app(&server_config(data_dir.as_deref()))?;
    println!("{}", handle.addr());
    io::stdout().flush()?;
    let mut sink = Vec::new();
    io::stdin().read_to_end(&mut sink)?;
    handle.shutdown();
    Ok(())
}

/// A running server child. Dropping it kills the process and waits for it,
/// so no exit path of the benchmark leaves a server behind.
pub struct ServerChild {
    child: Child,
    addr: SocketAddr,
    spawned: Instant,
}

impl ServerChild {
    /// Spawns the child and waits until it has bound its listener.
    pub fn spawn(data_dir: Option<&Path>) -> io::Result<Self> {
        let spawned = Instant::now();
        let mut command = Command::new(std::env::current_exe()?);
        command.arg("serve");
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir);
        }
        let mut child = command
            .env_remove("VIEWSEEKER_THREADS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("server child has no stdout"))?;
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = match line.trim().parse() {
            Ok(addr) => addr,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "server child did not report an address (got {line:?})"
                )));
            }
        };
        Ok(Self {
            child,
            addr,
            spawned,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// When the child process was spawned.
    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// SIGKILLs the server and reaps it: nothing the process had not yet
    /// handed to the operating system survives.
    pub fn kill(mut self) {
        self.kill_in_place();
    }

    fn kill_in_place(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill_in_place();
    }
}

/// A directory under `benchmark/out/` that is removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(tag: &str) -> io::Result<Self> {
        let path = out_dir().join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A blocking one-request-at-a-time HTTP client for set-up and scraping,
/// where nothing is timed per request by the event loop.
pub struct BlockingClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BlockingClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ParsedResponse> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match parse_response(&self.buf) {
                Ok(Some(response)) => {
                    self.buf.drain(..response.consumed);
                    return Ok(response);
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::other(format!("bad response: {e}"))),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::other(
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
