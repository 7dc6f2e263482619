//! A request line that is not UTF-8 is a malformed request like any other:
//! it gets one error reply that names UTF-8, and the connection stays open,
//! so the requests pipelined after it are answered too.

use std::io::{Read, Write};
use std::net::TcpStream;

use srra_serve::{Connection, Server, ServerConfig};

#[test]
fn a_non_utf8_line_is_answered_and_the_connection_stays_open() {
    let dir = std::env::temp_dir().join(format!("srra-non-utf8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServerConfig::ephemeral(&dir)).expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .write_all(
            b"{\"op\":\"ping\"}\n{\"op\":\"get\",\"canonical\":\"\xff\"}\n{\"op\":\"ping\"}\n",
        )
        .expect("pipelined write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half close");
    let mut replies = String::new();
    stream.read_to_string(&mut replies).expect("replies");
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert_eq!(replies[0], "{\"ok\":true,\"pong\":true}");
    assert!(
        replies[1].starts_with("{\"ok\":false,\"error\":\"JSON request line is not UTF-8"),
        "{}",
        replies[1]
    );
    assert_eq!(replies[2], "{\"ok\":true,\"pong\":true}");

    Connection::connect(&addr)
        .expect("connects")
        .shutdown()
        .expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}
