//! A minimal `mbsp_serve` line-protocol client, as walked through in
//! `docs/PROTOCOL.md`.
//!
//! Start a daemon, then point this example at it:
//!
//! ```text
//! cargo run --release -p mbsp_serve -- --listen 127.0.0.1:7700 &
//! cargo run --release --example serve_client -- 127.0.0.1:7700
//! ```
//!
//! The client registers a small conjugate-gradient instance, streams a
//! schedule request (printing each anytime incumbent as it arrives), applies
//! a mutation batch, repairs, and asks for final status. Everything is plain
//! `std::net` — the protocol needs no client library.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn main() -> std::io::Result<()> {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let stream = TcpStream::connect(&addr)?;
    // Transport advice of docs/PROTOCOL.md: no Nagle, one write per request.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;

    let mut send = |line: &str| -> std::io::Result<()> {
        println!(">> {line}");
        writer.write_all(format!("{line}\n").as_bytes())
    };
    let mut recv_line = String::new();
    let mut recv = |buf: &mut String| -> std::io::Result<String> {
        buf.clear();
        reader.read_line(buf)?;
        let frame = buf.trim().to_string();
        println!("<< {frame}");
        Ok(frame)
    };

    // 1. Register a CG(6, 2) family instance on a 4-processor machine with a
    //    fixed 4-shard search budget (explicit shards keep results
    //    machine-independent).
    send(
        r#"{"id":1,"op":"register","instance":"demo","family":{"kind":"cg","n":6,"k":2},"processors":4,"cache_factor":3.0,"num_shards":4,"seed":11,"max_rounds":8,"moves_per_round":10,"iterations":2}"#,
    )?;
    recv(&mut recv_line)?;

    // 2. Schedule with streaming: the daemon answers `accepted` immediately,
    //    then one `incumbent` frame per deterministic improvement, then `done`.
    send(r#"{"id":2,"op":"schedule","instance":"demo","stream":true}"#)?;
    loop {
        let frame = recv(&mut recv_line)?;
        if frame.contains(r#""event":"done""#) || frame.is_empty() {
            break;
        }
    }

    // 3. Mutate the DAG (grow it by one node and rewire), then repair the
    //    dirty cone. Both checkpoint the session to the state directory.
    send(
        r#"{"id":3,"op":"mutate","instance":"demo","deltas":[{"add_node":{"compute":2.0,"memory":1.0}},{"add_edge":{"from":0,"to":1}}]}"#,
    )?;
    recv(&mut recv_line)?;
    send(r#"{"id":4,"op":"repair","instance":"demo"}"#)?;
    loop {
        let frame = recv(&mut recv_line)?;
        if frame.contains(r#""event":"done""#) || frame.is_empty() {
            break;
        }
    }

    // 4. Per-instance status: node/edge counts, pending deltas, generation.
    send(r#"{"id":5,"op":"status","instance":"demo"}"#)?;
    recv(&mut recv_line)?;
    Ok(())
}
