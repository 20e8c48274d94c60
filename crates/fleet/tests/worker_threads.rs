//! A `WorkerServer` must not keep its finished connection threads. A
//! finished thread keeps its stack and guard page mapped until its handle
//! is joined or dropped, so a server that kept every handle ran into
//! `vm.max_map_count` after about 32.7k connections, failed to spawn and
//! aborted.
//!
//! The test counts memory mappings, the resource that ran out, rather
//! than address space: a new malloc arena reserves 64 MiB but adds only
//! two mappings, so `VmSize` can move by 128 MiB between runs of a correct
//! server while the mapping count moves by a few.
//!
//! This is a test binary of its own so that no other test's threads
//! change the process's mappings while it measures.
#![cfg(target_os = "linux")]

use gp_fleet::protocol::{read_frame, write_frame};
use gp_fleet::WorkerServer;
use gp_obs::Telemetry;
use std::net::TcpStream;

/// The process's memory mappings: one line each in `/proc/self/maps`.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// One connection carrying a malformed frame, answered with an error
/// envelope.
fn malformed_request(server: &WorkerServer) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, "this is not a plan request").unwrap();
    read_frame(&mut stream).unwrap();
}

#[test]
fn finished_connection_threads_release_their_stacks() {
    let mut server = WorkerServer::bind("127.0.0.1:0", Telemetry::disabled()).unwrap();
    for _ in 0..16 {
        malformed_request(&server);
    }
    let before = mappings();
    for _ in 0..256 {
        malformed_request(&server);
    }
    // Kept handles would add two mappings per connection: about 512.
    let grown = mappings().saturating_sub(before);
    assert!(
        grown < 64,
        "memory mappings grew by {grown} over 256 connections"
    );
    assert_eq!(server.served(), 16 + 256);
    server.shutdown();
}
