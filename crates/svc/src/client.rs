//! Blocking control-protocol client, used by the `fasda job` CLI verbs
//! and the service load generator.

use crate::job::JobSpec;
use crate::proto::{self, ProtoError};
use fasda_net::transport::{Endpoint, FrameLink};
use fasda_trace::Json;

/// One control connection to a running server. Requests are strictly
/// request/response, so a single client is usable from one thread;
/// open one client per thread for concurrent load.
pub struct Client {
    link: Box<dyn FrameLink>,
}

impl Client {
    /// Connect to a server's resolved listen address.
    pub fn connect(addr: &Endpoint) -> Result<Client, String> {
        let link = addr.connect().map_err(|e| e.to_string())?;
        Ok(Client { link })
    }

    fn call(&mut self, req: Json) -> Result<Json, ProtoError> {
        proto::write_msg(&mut *self.link, &req)?;
        proto::expect_ok(proto::read_msg(&mut *self.link)?)
    }

    /// Submit a job; returns its queue id.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ProtoError> {
        let resp = self.call(
            proto::msg()
                .field("op", "submit")
                .field("spec", spec.to_json())
                .build(),
        )?;
        resp.get("id")
            .and_then(Json::as_i64)
            .map(|v| v as u64)
            .ok_or_else(|| ProtoError::Malformed("submit response has no id".into()))
    }

    /// One job's status document.
    pub fn status(&mut self, id: u64) -> Result<Json, ProtoError> {
        let resp = self.call(
            proto::msg()
                .field("op", "status")
                .field("id", Json::uint(id))
                .build(),
        )?;
        resp.get("job")
            .cloned()
            .ok_or_else(|| ProtoError::Malformed("status response has no job".into()))
    }

    /// Every job's status document.
    pub fn status_all(&mut self) -> Result<Vec<Json>, ProtoError> {
        let resp = self.call(proto::msg().field("op", "status").build())?;
        Ok(resp
            .get("jobs")
            .map(|j| j.items().to_vec())
            .unwrap_or_default())
    }

    /// Cancel a queued or running job.
    pub fn cancel(&mut self, id: u64) -> Result<(), ProtoError> {
        self.call(
            proto::msg()
                .field("op", "cancel")
                .field("id", Json::uint(id))
                .build(),
        )
        .map(|_| ())
    }

    /// The job's lifecycle log lines.
    pub fn logs(&mut self, id: u64) -> Result<Vec<String>, ProtoError> {
        let resp = self.call(
            proto::msg()
                .field("op", "logs")
                .field("id", Json::uint(id))
                .build(),
        )?;
        Ok(resp
            .get("lines")
            .map(|l| {
                l.items()
                    .iter()
                    .filter_map(|s| s.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default())
    }

    /// Ask for the job to be drained at its next segment boundary and
    /// resumed on a different worker.
    pub fn migrate(&mut self, id: u64) -> Result<(), ProtoError> {
        self.call(
            proto::msg()
                .field("op", "migrate")
                .field("id", Json::uint(id))
                .build(),
        )
        .map(|_| ())
    }

    /// The server's metrics snapshot (counters, hists, gauges).
    pub fn metrics(&mut self) -> Result<Json, ProtoError> {
        let resp = self.call(proto::msg().field("op", "metrics").build())?;
        resp.get("metrics")
            .cloned()
            .ok_or_else(|| ProtoError::Malformed("metrics response has no metrics".into()))
    }

    /// Ask the server to shut down (running jobs drain and journal as
    /// requeued).
    pub fn shutdown(&mut self) -> Result<(), ProtoError> {
        self.call(proto::msg().field("op", "shutdown").build()).map(|_| ())
    }

    /// Poll `status` until the job reaches a terminal state; returns the
    /// final status document. `timeout` bounds the wait.
    pub fn wait(&mut self, id: u64, timeout: std::time::Duration) -> Result<Json, ProtoError> {
        let start = std::time::Instant::now();
        loop {
            let doc = self.status(id)?;
            match doc.get("state").and_then(Json::as_str) {
                Some("completed") | Some("cancelled") | Some("failed") => return Ok(doc),
                _ => {}
            }
            if start.elapsed() > timeout {
                return Err(ProtoError::Rejected(format!(
                    "job {id} did not finish within {timeout:?} (last: {})",
                    doc.compact()
                )));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
}
