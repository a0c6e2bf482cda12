//! Chaos harness for `mdserve`: every injected fault must end in either a
//! completed job (with resume evidence where applicable) or a cleanly
//! failed job with the root cause named — never a hang, never a lost job.
//!
//! Uses in-process servers on ephemeral localhost ports; jobs are small
//! Lennard-Jones runs so the suite stays fast in debug builds. The true
//! kill-`-9`-the-process storm is `scripts/tier1.sh`'s mdserve chaos gate.

use md_serve::{ChaosSpec, Client, JobSpec, Server, ServerConfig, ServerHandle, ShutdownMode};
use md_sim::JsonValue;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdserve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &PathBuf, workers: usize, queue_capacity: usize) -> ServerHandle {
    let mut cfg = ServerConfig::new(dir);
    cfg.workers = workers;
    cfg.queue_capacity = queue_capacity;
    cfg.retry_base_ms = 5;
    cfg.retry_cap_ms = 50;
    Server::start(cfg).expect("server must start")
}

/// A fast job for debug builds: 256-atom LJ argon, ~3 ms/step.
fn small_job(name: &str, steps: usize) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        potential: "lj".to_string(),
        cells: 4,
        steps,
        temperature: 80.0,
        checkpoint_every: 20,
        ..JobSpec::default()
    }
}

fn field<'a>(job: &'a JsonValue, key: &str) -> &'a JsonValue {
    job.get(key).unwrap_or(&JsonValue::Null)
}

fn status_of(job: &JsonValue) -> &str {
    field(job, "status").as_str().unwrap_or("?")
}

const WAIT: Duration = Duration::from_secs(120);

#[test]
fn storm_of_clients_completes_every_job() {
    let dir = chaos_dir("storm");
    let handle = start(&dir, 2, 64);
    let addr = handle.addr();
    let threads: Vec<_> = (0..3)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let ids: Vec<u64> = (0..3)
                    .map(|j| {
                        let mut spec = small_job(&format!("storm-{c}-{j}"), 60);
                        spec.seed = 1 + c * 10 + j;
                        client.submit(&spec).expect("submit")
                    })
                    .collect();
                for id in ids {
                    let job = client.wait(id, WAIT).expect("wait");
                    assert_eq!(status_of(&job), "completed", "job record: {job}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "jobs_completed").as_f64(), Some(9.0), "stats: {stats}");
    assert_eq!(field(&stats, "jobs_pending").as_f64(), Some(0.0), "stats: {stats}");
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_resumes_job_from_checkpoint() {
    let dir = chaos_dir("kill");
    let handle = start(&dir, 1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut spec = small_job("kill-me", 100);
    spec.checkpoint_every = 25;
    // Panic the worker mid-run on the first attempt only.
    spec.chaos = ChaosSpec { kill_at_step: Some(60), ..ChaosSpec::default() };
    let id = client.submit(&spec).unwrap();
    let job = client.wait(id, WAIT).unwrap();
    assert_eq!(status_of(&job), "completed", "job record: {job}");
    assert_eq!(field(&job, "attempt").as_f64(), Some(2.0), "job record: {job}");
    // The kill hit at step 60; chunks checkpoint at their entry, so the
    // durable state was step 50 and the retry must resume exactly there.
    assert_eq!(
        field(&job, "resumed_from_checkpoint").as_f64(),
        Some(50.0),
        "job record: {job}"
    );
    // Resume must integrate only the remaining 50 steps, not re-run the
    // full 100 from the checkpointed state.
    let message = field(&job, "message").as_str().unwrap_or("");
    assert!(
        message.contains("(50 on final attempt)"),
        "resume must not re-run completed steps: {message}"
    );
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "interrupted").as_f64(), Some(1.0), "stats: {stats}");
    assert_eq!(field(&stats, "resumes").as_f64(), Some(1.0), "stats: {stats}");
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_fault_fails_cleanly_with_root_cause() {
    let dir = chaos_dir("nan");
    let handle = start(&dir, 1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut spec = small_job("poisoned", 60);
    spec.max_retries = 2;
    spec.max_job_retries = 1;
    // A NaN velocity at every 10th step survives rollbacks and retries —
    // the job must end *failed*, not hung, with the fault named.
    spec.chaos = ChaosSpec { nan_every: Some(10), ..ChaosSpec::default() };
    let id = client.submit(&spec).unwrap();
    let job = client.wait(id, WAIT).unwrap();
    assert_eq!(status_of(&job), "failed", "job record: {job}");
    assert_eq!(
        field(&job, "fault").as_str(),
        Some("NonFiniteVelocity"),
        "root cause must be the injected fault: {job}"
    );
    let message = field(&job, "message").as_str().unwrap_or("");
    assert!(message.contains("recovery exhausted"), "message: {message}");
    handle.shutdown(ShutdownMode::Drain);
    assert!(
        !dir.join(format!("job-{id}.ckpt")).exists(),
        "a failed job must not leak its checkpoint file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_pushes_back_instead_of_accepting_silently() {
    let dir = chaos_dir("backpressure");
    let handle = start(&dir, 1, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    // Occupy the single worker with a long job, then fill the queue.
    let busy = client.submit(&small_job("busy", 2000)).unwrap();
    let t0 = Instant::now();
    loop {
        let stats = client.stats().unwrap();
        if field(&stats, "started").as_f64() == Some(1.0) {
            break;
        }
        assert!(t0.elapsed() < WAIT, "worker never picked the busy job");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.submit(&small_job("q1", 60)).unwrap();
    client.submit(&small_job("q2", 60)).unwrap();
    let err = client.submit(&small_job("q3", 60)).unwrap_err();
    assert!(err.contains("backpressure"), "rejection must be explicit: {err}");
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "rejected").as_f64(), Some(1.0), "stats: {stats}");
    // Shutdown-now interrupts the busy job at a chunk boundary with its
    // checkpoint flushed — verify the flush happened.
    handle.shutdown(ShutdownMode::Now);
    assert!(dir.join(format!("job-{busy}.ckpt")).exists(), "interrupt must flush a checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_resumes_interrupted_and_queued_jobs_with_zero_loss() {
    let dir = chaos_dir("restart");
    // Life 1: one long job running, two queued behind it.
    let handle = start(&dir, 1, 8);
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    // Long enough to still be running at the shutdown below in release
    // builds too, where a step takes well under a millisecond.
    let busy = client.submit(&small_job("long", 6000)).unwrap();
    let q1 = client.submit(&small_job("queued-1", 60)).unwrap();
    let q2 = client.submit(&small_job("queued-2", 60)).unwrap();
    // Wait on evidence, not elapsed time: the long job is running and has
    // written its first checkpoint chunk (20 steps).
    let ckpt = dir.join(format!("job-{busy}.ckpt"));
    let t0 = Instant::now();
    loop {
        let job = client.status(busy).unwrap();
        let status = status_of(&job);
        assert_ne!(
            status, "completed",
            "the long job finished before the shutdown: {job}"
        );
        if status == "running" && ckpt.exists() {
            break;
        }
        assert!(
            t0.elapsed() < WAIT,
            "busy job never checkpointed while running: {job}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);
    handle.shutdown(ShutdownMode::Now);

    // Life 2: same directory — replay must re-queue all three jobs and
    // resume the interrupted one from its flushed checkpoint.
    let handle = start(&dir, 2, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    for id in [busy, q1, q2] {
        let job = client.wait(id, WAIT).unwrap();
        assert_eq!(status_of(&job), "completed", "job {id} after restart: {job}");
        assert_eq!(field(&job, "recovered"), &JsonValue::Bool(true), "job {id}: {job}");
    }
    let resumed = field(&client.status(busy).unwrap(), "resumed_from_checkpoint").as_f64();
    assert!(
        matches!(resumed, Some(step) if step > 0.0),
        "interrupted job must carry resume evidence, got {resumed:?}"
    );
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "jobs_total").as_f64(), Some(3.0), "no job lost: {stats}");
    assert_eq!(field(&stats, "jobs_completed").as_f64(), Some(3.0), "stats: {stats}");
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_dropped_and_server_keeps_going() {
    let dir = chaos_dir("torn-tail");
    let handle = start(&dir, 1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let id = client.submit(&small_job("before-crash", 60)).unwrap();
    let job = client.wait(id, WAIT).unwrap();
    assert_eq!(status_of(&job), "completed");
    drop(client);
    handle.shutdown(ShutdownMode::Drain);
    // Simulate a crash mid-append: garbage half-line at the tail.
    use std::io::Write;
    let journal = dir.join("queue.journal");
    let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
    f.write_all(b"{\"ev\":\"submit\",\"job\":99,\"spec\":{\"na").unwrap();
    drop(f);

    let handle = start(&dir, 1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    // The completed record before the tear survives; the torn line is gone.
    let job = client.status(id).unwrap();
    assert_eq!(status_of(&job), "completed", "history must survive the tear: {job}");
    assert!(client.status(99).is_err(), "the torn submit must not resurrect");
    // And the repaired journal accepts new work.
    let id2 = client.submit(&small_job("after-repair", 60)).unwrap();
    let job2 = client.wait(id2, WAIT).unwrap();
    assert_eq!(status_of(&job2), "completed", "job record: {job2}");
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_is_discarded_and_job_reruns_from_scratch() {
    let dir = chaos_dir("bad-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    // Hand-craft life 1's leftovers: a journaled pending job whose
    // checkpoint file has a flipped byte in its checksummed payload.
    let spec = small_job("bit-rot", 60);
    {
        let mut journal = md_serve::Journal::open(dir.join("queue.journal")).unwrap();
        journal
            .append(&md_serve::JournalEvent::Submitted {
                job: 1,
                spec: spec.clone(),
                at_unix_ms: md_serve::unix_ms(),
            })
            .unwrap();
    }
    let ckpt = dir.join("job-1.ckpt");
    {
        let (lattice, _, mass) = spec.lattice().unwrap();
        let sim = md_sim::Simulation::builder(lattice)
            .mass(mass)
            .temperature(spec.temperature)
            .pair_potential(md_potential::LennardJones::new(0.0104, 3.4, 8.5))
            .strategy(md_sim::StrategyKind::Serial)
            .threads(1)
            .build()
            .unwrap();
        md_sim::save_checkpoint(&ckpt, sim.system(), 40).unwrap();
    }
    let len = std::fs::metadata(&ckpt).unwrap().len() as usize;
    md_sim::health::corrupt_file_byte(&ckpt, len / 2).unwrap();

    let handle = start(&dir, 1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let job = client.wait(1, WAIT).unwrap();
    assert_eq!(status_of(&job), "completed", "job record: {job}");
    assert_eq!(
        field(&job, "resumed_from_checkpoint"),
        &JsonValue::Null,
        "a corrupt checkpoint must not be resumed from: {job}"
    );
    let message = field(&job, "message").as_str().unwrap_or("");
    assert!(message.contains("corrupt checkpoint discarded"), "message: {message}");
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphaned_checkpoints_are_swept_so_reissued_ids_start_fresh() {
    let dir = chaos_dir("orphan");
    std::fs::create_dir_all(&dir).unwrap();
    // Life 1's leftovers: job 1 is terminal in the journal, so next_id will
    // be 2 — and a *valid* job-2.ckpt survives from a journal-truncation
    // victim. Without the startup sweep, the first new submit would reuse
    // id 2 and silently resume from this unrelated checkpoint.
    {
        let mut journal = md_serve::Journal::open(dir.join("queue.journal")).unwrap();
        journal
            .append(&md_serve::JournalEvent::Submitted {
                job: 1,
                spec: small_job("earlier", 60),
                at_unix_ms: md_serve::unix_ms(),
            })
            .unwrap();
        journal
            .append(&md_serve::JournalEvent::Completed {
                job: 1,
                steps: 60,
                rollbacks: 0,
                resumed_from: 0,
            })
            .unwrap();
    }
    let bait = dir.join("job-2.ckpt");
    {
        let spec = small_job("bait", 60);
        let (lattice, _, mass) = spec.lattice().unwrap();
        let sim = md_sim::Simulation::builder(lattice)
            .mass(mass)
            .temperature(spec.temperature)
            .pair_potential(md_potential::LennardJones::new(0.0104, 3.4, 8.5))
            .strategy(md_sim::StrategyKind::Serial)
            .threads(1)
            .build()
            .unwrap();
        md_sim::save_checkpoint(&bait, sim.system(), 40).unwrap();
    }
    let stale = dir.join("job-9.ckpt");
    std::fs::write(&stale, b"not even a checkpoint").unwrap();

    let handle = start(&dir, 1, 8);
    assert!(!bait.exists(), "checkpoint with a reissuable id must be swept at startup");
    assert!(!stale.exists(), "unknown-id checkpoint must be swept at startup");
    let mut client = Client::connect(handle.addr()).unwrap();
    let id = client.submit(&small_job("fresh", 60)).unwrap();
    assert_eq!(id, 2, "the reissued id is exactly the hazardous one");
    let job = client.wait(id, WAIT).unwrap();
    assert_eq!(status_of(&job), "completed", "job record: {job}");
    assert_eq!(
        field(&job, "resumed_from_checkpoint"),
        &JsonValue::Null,
        "a fresh job must not resume from a stale stranger's checkpoint: {job}"
    );
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_keeps_counting_across_a_restart() {
    let dir = chaos_dir("deadline-restart");
    // Life 1: a job with a wall-clock deadline gets interrupted mid-run.
    let handle = start(&dir, 1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut spec = small_job("mortal", 100_000);
    spec.deadline_ms = Some(1_500);
    let id = client.submit(&spec).unwrap();
    let t0 = Instant::now();
    loop {
        if status_of(&client.status(id).unwrap()) == "running" {
            break;
        }
        assert!(t0.elapsed() < WAIT, "job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(client);
    handle.shutdown(ShutdownMode::Now);

    // Downtime pushes the job past its deadline; the journaled acceptance
    // timestamp must keep counting while the server is gone.
    std::thread::sleep(Duration::from_millis(1_700));

    let handle = start(&dir, 1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let job = client.wait(id, WAIT).unwrap();
    assert_eq!(
        status_of(&job),
        "failed",
        "deadline must not restart with the server: {job}"
    );
    assert_eq!(field(&job, "fault").as_str(), Some("DeadlineExceeded"), "job record: {job}");
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_json_and_dropped_clients_leave_the_server_serving() {
    let dir = chaos_dir("rude-clients");
    let handle = start(&dir, 1, 8);
    let addr = handle.addr();
    // Malformed JSON gets an error response and the connection survives.
    let mut client = Client::connect(addr).unwrap();
    let err = client.raw_line("{this is not json").unwrap_err();
    assert!(err.contains("bad request"), "error: {err}");
    client.ping().expect("connection must survive a bad request");
    // A client that vanishes mid-request must not wedge anything.
    {
        use std::io::Write;
        let mut rude = std::net::TcpStream::connect(addr).unwrap();
        rude.write_all(b"{\"cmd\":\"sub").unwrap();
        // dropped here, mid-line
    }
    std::thread::sleep(Duration::from_millis(50));
    let id = client.submit(&small_job("after-rudeness", 60)).unwrap();
    let job = client.wait(id, WAIT).unwrap();
    assert_eq!(status_of(&job), "completed", "job record: {job}");
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_is_enforced_and_named() {
    let dir = chaos_dir("deadline");
    let handle = start(&dir, 1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut spec = small_job("too-slow", 100_000);
    spec.deadline_ms = Some(300);
    let id = client.submit(&spec).unwrap();
    let job = client.wait(id, WAIT).unwrap();
    assert_eq!(status_of(&job), "failed", "job record: {job}");
    assert_eq!(field(&job, "fault").as_str(), Some("DeadlineExceeded"), "job record: {job}");
    handle.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_server_on_the_same_state_dir_is_refused() {
    // Two servers sharing a state directory would both replay the journal,
    // run the re-queued jobs twice, and race each other's checkpoint temp
    // files. The directory lock must refuse the second server outright —
    // and release on shutdown so a successor can take over.
    let dir = chaos_dir("dirlock");
    let handle = start(&dir, 1, 8);
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 1;
    let err = match Server::start(cfg) {
        Err(e) => e,
        Ok(_) => panic!("second server must be refused"),
    };
    assert!(
        err.to_string().contains("already served"),
        "unexpected error: {err}"
    );
    // The refused attempt must not have perturbed the live server.
    let mut client = Client::connect(handle.addr()).unwrap();
    let id = client.submit(&small_job("post-refusal", 40)).unwrap();
    let job = client.wait(id, WAIT).unwrap();
    assert_eq!(status_of(&job), "completed", "job record: {job}");
    handle.shutdown(ShutdownMode::Drain);
    // Lock released: a successor starts cleanly on the same directory.
    let successor = start(&dir, 1, 8);
    successor.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}
