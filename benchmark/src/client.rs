//! One closed-loop protocol connection.
//!
//! A request is one `write_all` of a prebuilt line on a `TCP_NODELAY` socket;
//! every reply frame is stamped the moment its newline has been read, and the
//! request's clock stops at the terminating frame. Nothing is parsed while
//! the clock runs — replies are kept as bytes and checked afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A hung daemon must fail the run, not hang it past the harness's limit.
const IO_TIMEOUT: Duration = Duration::from_secs(150);

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Every frame of one reply, in arrival order; the last one terminated it.
#[derive(Debug)]
pub struct Reply {
    pub sent: Instant,
    pub frames: Vec<(Instant, Vec<u8>)>,
}

impl Reply {
    /// Send → newline of the terminating frame.
    pub fn latency_ms(&self) -> f64 {
        let (done, _) = self.frames.last().expect("a reply has a terminating frame");
        done.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        writer.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    /// Sends `line` (which ends in `\n`) and collects frames up to and
    /// including the first one that is not `accepted` or `incumbent`.
    pub fn request(&mut self, line: &[u8]) -> std::io::Result<Reply> {
        debug_assert_eq!(line.last(), Some(&b'\n'));
        let sent = Instant::now();
        self.writer.write_all(line)?;
        let mut frames = Vec::new();
        loop {
            let mut frame = Vec::new();
            let n = self.reader.read_until(b'\n', &mut frame)?;
            let at = Instant::now();
            if n == 0 || frame.last() != Some(&b'\n') {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "the daemon closed the connection mid-reply",
                ));
            }
            let interim = is_interim(&frame);
            frames.push((at, frame));
            if !interim {
                return Ok(Reply { sent, frames });
            }
        }
    }
}

/// `accepted` and `incumbent` frames announce more to come. The event name
/// sits in the first few fields of every frame the daemon writes, so a scan
/// of the frame's head decides without parsing multi-megabyte frames.
fn is_interim(frame: &[u8]) -> bool {
    let head = &frame[..frame.len().min(96)];
    [&b"\"event\":\"accepted\""[..], b"\"event\":\"incumbent\""]
        .iter()
        .any(|needle| head.windows(needle.len()).any(|w| w == *needle))
}

#[cfg(test)]
mod tests {
    use super::is_interim;

    #[test]
    fn only_accepted_and_incumbent_frames_are_interim() {
        assert!(is_interim(
            br#"{"id":2,"ok":true,"event":"accepted","job":17,"instance":"demo"}"#
        ));
        assert!(is_interim(
            br#"{"job":17,"event":"incumbent","sequence":0,"iteration":0,"cost":1.0}"#
        ));
        assert!(!is_interim(
            br#"{"id":2,"job":17,"ok":true,"event":"done","cost":1.0}"#
        ));
        assert!(!is_interim(
            br#"{"id":2,"ok":false,"error":{"code":"bad_request","message":"x"}}"#
        ));
        assert!(!is_interim(
            br#"{"ok":true,"event":"status","instance":"accepted","nodes":1}"#
        ));
    }
}
