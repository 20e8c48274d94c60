//! Planner workers: the [`PlanWorker`] trait, the in-process
//! [`LocalWorker`], the socket-backed [`RemoteWorker`] client, and the
//! [`WorkerServer`] that turns any host into a planning backend.
//!
//! Every worker — local thread or remote process — satisfies the same
//! contract: given a [`PlanRequest`], produce the **canonical artifact
//! text** for that request
//! ([`crate::canonical_artifact`]: the plan codec with search stats
//! zeroed). Because the artifact is a pure function of the request, the
//! front-end cannot tell local and remote workers apart by their output —
//! which is exactly the fleet's determinism contract, and what lets it
//! retry a dead worker on any other worker without changing the answer.

use crate::protocol::{
    self, canonical_artifact, classify_reply, read_frame, write_frame, WireReply,
};
use gp_obs::Telemetry;
use gp_partition::PlanError;
use gp_serve::{PlanRequest, ServeError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Why a worker could not produce an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerFailure {
    /// The worker itself is gone or unreachable (connect/read/write
    /// failure, malformed reply). Retryable on another worker.
    Unavailable(String),
    /// The worker ran the planner and planning failed. Deterministic —
    /// every worker would fail the same way — so not retryable.
    Failed(ServeError),
}

/// A planning backend: anything that maps a request to the canonical
/// artifact text.
pub trait PlanWorker: Send + Sync {
    /// Human-readable identity for stats and error messages.
    fn describe(&self) -> String;

    /// Plans the request and returns the canonical artifact text.
    ///
    /// # Errors
    ///
    /// [`WorkerFailure::Unavailable`] when the backend is unreachable,
    /// [`WorkerFailure::Failed`] when planning itself failed.
    fn plan(&self, request: &PlanRequest) -> Result<String, WorkerFailure>;
}

/// Plans a request in-process: build the requested planner, run it,
/// statically verify the strategy, and encode the canonical artifact.
///
/// The planner comes from [`ServePlanner::build`](gp_serve::ServePlanner::build),
/// the same factory `Session::plan` uses, so a fleet worker and local
/// planning produce the same strategy for the same request.
///
/// # Errors
///
/// [`ServeError::Plan`] when the search fails, [`ServeError::InvalidPlan`]
/// when the produced strategy violates a static invariant.
pub fn plan_locally(request: &PlanRequest, telemetry: &Telemetry) -> Result<String, ServeError> {
    let plan = request
        .planner
        .build(request.options.clone(), telemetry)
        .plan(&request.model, &request.cluster, request.mini_batch)
        .map_err(ServeError::Plan)?;
    // Trust boundary: no unverified plan leaves a worker.
    gp_verify::verify_strategy(&request.model, &request.cluster, &plan)
        .into_result()
        .map_err(ServeError::InvalidPlan)?;
    Ok(canonical_artifact(&plan, request.fingerprint()))
}

/// An in-process worker: plans on the calling dispatcher thread.
pub struct LocalWorker {
    index: usize,
    telemetry: Telemetry,
}

impl LocalWorker {
    /// A local worker labelled `local-<index>` in stats and errors.
    pub fn new(index: usize, telemetry: Telemetry) -> Self {
        LocalWorker { index, telemetry }
    }
}

impl PlanWorker for LocalWorker {
    fn describe(&self) -> String {
        format!("local-{}", self.index)
    }

    fn plan(&self, request: &PlanRequest) -> Result<String, WorkerFailure> {
        plan_locally(request, &self.telemetry).map_err(WorkerFailure::Failed)
    }
}

/// A remote worker client: one TCP connection per request (request frame
/// out, reply frame back, close). Reconnect-per-request keeps worker
/// death visible as an immediate transport error instead of a stuck
/// stream.
pub struct RemoteWorker {
    addr: String,
}

impl RemoteWorker {
    /// A client for the worker at `addr` (e.g. `"127.0.0.1:7070"`).
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteWorker { addr: addr.into() }
    }
}

impl PlanWorker for RemoteWorker {
    fn describe(&self) -> String {
        format!("remote-{}", self.addr)
    }

    fn plan(&self, request: &PlanRequest) -> Result<String, WorkerFailure> {
        let unavailable = |what: &str, e: &dyn std::fmt::Display| -> WorkerFailure {
            WorkerFailure::Unavailable(format!("{}: {what}: {e}", self.addr))
        };
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| unavailable("connect", &e))?;
        write_frame(&mut stream, &protocol::encode_request(request))
            .map_err(|e| unavailable("send", &e))?;
        let reply = read_frame(&mut stream).map_err(|e| unavailable("recv", &e))?;
        match classify_reply(&reply) {
            Ok(WireReply::Artifact(text)) => Ok(text),
            Ok(WireReply::Error(plan_error)) => {
                Err(WorkerFailure::Failed(ServeError::Plan(plan_error)))
            }
            Err(e) => Err(unavailable("reply", &e)),
        }
    }
}

/// A TCP planning backend: accepts connections, decodes plan requests,
/// plans locally, and replies with the canonical artifact (or the error
/// envelope).
pub struct WorkerServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl WorkerServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, telemetry: Telemetry) -> io::Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let accept_stop = Arc::clone(&stop);
        let accept_served = Arc::clone(&served);
        let accept_thread = thread::Builder::new()
            .name(format!("gp-fleet-worker-{}", addr.port()))
            .spawn(move || {
                let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
                while let Ok((stream, _)) = listener.accept() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let telemetry = telemetry.clone();
                    let served = Arc::clone(&accept_served);
                    // A finished thread keeps its stack mapped until its
                    // handle is joined or dropped; keeping every handle
                    // runs a long-lived server out of mappings.
                    handlers.retain(|h| !h.is_finished());
                    handlers.push(thread::spawn(move || {
                        handle_connection(stream, &telemetry, &served);
                    }));
                }
                for h in handlers {
                    let _ = h.join();
                }
            })?;
        Ok(WorkerServer {
            addr,
            stop,
            served,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests this server has answered (successfully or with an error
    /// envelope).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and joins all handler threads. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // The accept loop is blocked in accept(); a self-connection wakes
        // it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, telemetry: &Telemetry, served: &AtomicU64) {
    let Ok(text) = read_frame(&mut stream) else {
        return; // Peer died mid-request; nothing to answer.
    };
    let reply = match protocol::decode_request(&text) {
        Ok(request) => match plan_locally(&request, telemetry) {
            Ok(artifact) => artifact,
            Err(ServeError::Plan(e)) => protocol::encode_plan_error(&e),
            Err(other) => {
                protocol::encode_plan_error(&PlanError::Internal(format!("worker: {other}")))
            }
        },
        Err(e) => protocol::encode_plan_error(&PlanError::Internal(format!("protocol: {e}"))),
    };
    served.fetch_add(1, Ordering::Relaxed);
    let _ = write_frame(&mut stream, &reply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::Cluster;
    use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig};
    use gp_serve::ServePlanner;
    use std::sync::Arc as StdArc;

    fn request() -> PlanRequest {
        PlanRequest::new(
            StdArc::new(zoo::candle_uno(&CandleUnoConfig::tiny())),
            Cluster::summit_like(4),
            32,
        )
    }

    #[test]
    fn local_worker_output_is_the_canonical_artifact() {
        let request = request();
        let worker = LocalWorker::new(0, Telemetry::disabled());
        let text = worker.plan(&request).expect("plans");
        let (plan, fp) =
            gp_serve::artifact::decode_plan(&text, request.model.graph(), &request.cluster)
                .expect("artifact decodes and validates");
        assert_eq!(fp, Some(request.fingerprint()));
        assert_eq!(text, canonical_artifact(&plan, request.fingerprint()));
    }

    #[test]
    fn loopback_server_matches_local_planning_byte_for_byte() {
        let mut server = WorkerServer::bind("127.0.0.1:0", Telemetry::disabled()).unwrap();
        let remote = RemoteWorker::new(server.addr().to_string());
        for request in [
            request(),
            PlanRequest::new(
                StdArc::new(zoo::dlrm(&DlrmConfig::tiny())),
                Cluster::summit_like(4),
                64,
            )
            .with_planner(ServePlanner::PipeDream),
        ] {
            let local = plan_locally(&request, &Telemetry::disabled()).unwrap();
            let served = remote.plan(&request).expect("remote plans");
            assert_eq!(
                served, local,
                "remote and local artifacts must be identical"
            );
        }
        assert_eq!(server.served(), 2);
        server.shutdown();
    }

    #[test]
    fn dead_worker_reports_unavailable() {
        // Bind then immediately drop to get a port with no listener.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let remote = RemoteWorker::new(format!("127.0.0.1:{port}"));
        match remote.plan(&request()) {
            Err(WorkerFailure::Unavailable(why)) => {
                assert!(why.contains("connect"), "{why}")
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn malformed_request_gets_an_error_envelope() {
        let mut server = WorkerServer::bind("127.0.0.1:0", Telemetry::disabled()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, "this is not a plan request").unwrap();
        let reply = read_frame(&mut stream).unwrap();
        match classify_reply(&reply).unwrap() {
            WireReply::Error(PlanError::Internal(msg)) => {
                assert!(msg.contains("protocol"), "{msg}")
            }
            _ => panic!("expected an internal-error envelope"),
        }
        server.shutdown();
    }
}
