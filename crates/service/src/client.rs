//! Client side of the campaign service protocol: a thin synchronous
//! wrapper over one Unix-socket connection.

use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::job::JobManifest;
use crate::wire::{
    decode_event, decode_response, encode_request, read_frame, write_frame, Event, Request,
    Response,
};
use crate::ServiceError;
use aps_sim::campaign::CampaignSpec;
use aps_tracestore::StoreInfo;

/// One connection to a running daemon.
pub struct Client {
    stream: UnixStream,
}

/// Outcome of a submission, unpacked from [`Response::Submitted`].
#[derive(Debug, Clone, PartialEq)]
pub struct Submitted {
    /// Job id (the hex content-address).
    pub job: String,
    /// State right after submission.
    pub state: String,
    /// Campaign grid size.
    pub total_jobs: usize,
    /// `true` when served with zero executor work.
    pub cached: bool,
}

impl Client {
    /// Connects to the daemon socket.
    pub fn connect(socket: &Path) -> Result<Client, ServiceError> {
        let stream = UnixStream::connect(socket).map_err(ServiceError::io(socket))?;
        Ok(Client { stream })
    }

    /// Sends one request and reads its response. [`Response::Error`]
    /// becomes [`ServiceError::Remote`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let payload = encode_request(request)?;
        write_frame(&mut self.stream, &payload)?;
        let reply = read_frame(&mut self.stream)?;
        match decode_response(&reply)? {
            Response::Error { code, detail } => Err(ServiceError::Remote { code, detail }),
            other => Ok(other),
        }
    }

    /// Submits a campaign.
    pub fn submit(
        &mut self,
        spec: CampaignSpec,
        shards: usize,
        priority: u32,
        seed: &str,
    ) -> Result<Submitted, ServiceError> {
        match self.request(&Request::SubmitCampaign {
            spec: Box::new(spec),
            shards,
            priority,
            seed: String::from(seed),
        })? {
            Response::Submitted {
                job,
                state,
                total_jobs,
                cached,
            } => Ok(Submitted {
                job,
                state,
                total_jobs,
                cached,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches manifests: one for `job`, or all when `job` is empty.
    pub fn status(&mut self, job: &str) -> Result<Vec<JobManifest>, ServiceError> {
        match self.request(&Request::Status {
            job: String::from(job),
        })? {
            Response::Status { jobs } => Ok(jobs),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancels a queued or running job.
    pub fn cancel(&mut self, job: &str) -> Result<(), ServiceError> {
        match self.request(&Request::Cancel {
            job: String::from(job),
        })? {
            Response::Done => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Locates a finished job's result store.
    pub fn fetch(&mut self, job: &str) -> Result<(String, StoreInfo), ServiceError> {
        match self.request(&Request::Fetch {
            job: String::from(job),
        })? {
            Response::Fetched { path, info } => Ok((path, info)),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to shut down cleanly.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        match self.request(&Request::Shutdown)? {
            Response::Done => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Turns this connection into an event stream for `job`. The
    /// daemon acknowledges, then pushes [`Event`] frames until the
    /// job is terminal or the daemon closes.
    pub fn subscribe(mut self, job: &str) -> Result<EventStream, ServiceError> {
        match self.request(&Request::Subscribe {
            job: String::from(job),
        })? {
            Response::Done => Ok(EventStream {
                stream: self.stream,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Subscribes and blocks until the job is terminal, returning
    /// `(state, digest)`. A daemon shutdown before completion is a
    /// [`ServiceError::Remote`] with code `closing`.
    pub fn wait(self, job: &str) -> Result<(String, String), ServiceError> {
        let mut events = self.subscribe(job)?;
        loop {
            match events.next_event()? {
                Event::JobDone { state, digest, .. } => return Ok((state, digest)),
                Event::Closing => {
                    return Err(ServiceError::Remote {
                        code: String::from("closing"),
                        detail: String::from("daemon shut down before the job finished"),
                    })
                }
                Event::Progress { .. } | Event::ShardDone { .. } => {}
            }
        }
    }
}

fn unexpected(response: &Response) -> ServiceError {
    ServiceError::Remote {
        code: String::from("unexpected-response"),
        detail: format!("unexpected response variant: {response:?}"),
    }
}

/// Receiving half of a [`Client::subscribe`] connection.
pub struct EventStream {
    stream: UnixStream,
}

impl EventStream {
    /// Blocks for the next event.
    pub fn next_event(&mut self) -> Result<Event, ServiceError> {
        let payload = read_frame(&mut self.stream)?;
        Ok(decode_event(&payload)?)
    }
}
