//! Event-plane liveness under adversarial peers: a connection that
//! dribbles one byte at a time or stalls mid-frame must neither block
//! other connections (the poller keeps every other state machine
//! progressing) nor leak — the frame-assembly deadline reaps it. A caller
//! waiting for brokers is answered by the loop, not by polling.

use bate_net::topologies;
use bate_routing::RoutingScheme;
use bate_system::client::DemandRequest;
use bate_system::proto::Message;
use bate_system::wire::encode_frame;
use bate_system::{Broker, Client, Controller, ControllerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Controller with a short mid-frame deadline so reaping is observable
/// in test time.
fn start_controller(idle_timeout: Duration) -> Controller {
    Controller::start(ControllerConfig {
        topo: topologies::testbed6(),
        routing: RoutingScheme::default_ksp4(),
        max_failures: 2,
        schedule_interval: None,
        idle_timeout,
    })
    .unwrap()
}

/// Wait until `pred` holds or the deadline passes; returns whether it
/// held.
fn poll_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    pred()
}

/// Whether the peer has closed `stream` (read returns 0 or a reset).
fn peer_closed(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut buf = [0u8; 64];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return false
            }
            Err(_) => return true,
        }
    }
}

#[test]
fn dribbler_does_not_block_other_connections_and_is_reaped() {
    let controller = start_controller(Duration::from_millis(400));

    // The dribbler: a valid Ping frame delivered one byte per 25 ms —
    // each byte is progress, so a naive per-read timeout would never
    // fire; the unrefreshed frame deadline still catches it.
    let mut dribbler = TcpStream::connect(controller.addr()).unwrap();
    dribbler.set_nodelay(true).unwrap();
    let frame = encode_frame(&Message::Ping { token: 99 }).unwrap();
    let drib_frame = frame.clone();
    let mut drib_clone = dribbler.try_clone().unwrap();
    let feeder = std::thread::spawn(move || {
        for b in drib_frame {
            if drib_clone.write_all(&[b]).is_err() {
                break; // reaped mid-dribble: expected
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    // Give the dribbler a head start into its frame, then verify the
    // plane still serves a well-behaved client promptly.
    assert!(poll_until(Duration::from_secs(2), || {
        controller
            .connection_progress()
            .iter()
            .any(|(_, p)| p.mid_frame && p.bytes_in > 0)
    }));
    let mut client = Client::connect(controller.addr()).unwrap();
    let t0 = Instant::now();
    assert!(client
        .submit(&DemandRequest::new(1, "DC1", "DC3", 100.0, 0.95))
        .unwrap());
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "a mid-frame dribbler must not delay admission for other connections"
    );

    // Progress accounting: the dribbler's connection shows partial-frame
    // bytes but zero completed frames; the client's shows completed
    // frames. (The loop reads progress live; poll anyway, since the
    // dribbler's bytes arrive on their own schedule.)
    assert!(
        poll_until(Duration::from_secs(2), || {
            let progress = controller.connection_progress();
            progress
                .iter()
                .any(|(_, p)| p.mid_frame && p.frames_in == 0 && p.bytes_in > 0)
                && progress.iter().any(|(_, p)| p.frames_in > 0)
        }),
        "dribbler/client progress not visible: {:?}",
        controller.connection_progress()
    );

    // The deadline is armed at the first partial byte and deliberately
    // not refreshed per byte: the dribbler is reaped while still
    // dribbling.
    assert!(
        poll_until(Duration::from_secs(3), || controller.reaped() > 0),
        "dribbler was never reaped"
    );
    assert!(peer_closed(&mut dribbler), "reaped socket must be closed");
    feeder.join().unwrap();

    // The well-behaved client is unaffected by the reap.
    assert!(client
        .submit(&DemandRequest::new(2, "DC2", "DC6", 50.0, 0.9))
        .unwrap());
    assert_eq!(controller.admitted_count(), 2);
}

#[test]
fn mid_frame_staller_is_reaped_but_idle_connections_are_not() {
    let controller = start_controller(Duration::from_millis(300));

    // The staller: half a frame, then silence.
    let mut staller = TcpStream::connect(controller.addr()).unwrap();
    staller.set_nodelay(true).unwrap();
    let frame = encode_frame(&Message::Ping { token: 5 }).unwrap();
    staller.write_all(&frame[..frame.len() / 2]).unwrap();

    // An idle connection: connected, sent one complete request, now
    // quiet between frames. Must NOT be reaped — brokers legitimately
    // sit idle.
    let mut idle = Client::connect(controller.addr()).unwrap();
    assert!(idle.ping().unwrap() < Duration::from_secs(1));

    assert!(
        poll_until(Duration::from_secs(3), || controller.reaped() > 0),
        "mid-frame staller was never reaped"
    );
    assert!(peer_closed(&mut staller));

    // Well past the idle timeout, the between-frames connection still
    // answers.
    std::thread::sleep(Duration::from_millis(400));
    assert!(idle.ping().unwrap() < Duration::from_secs(1));
    assert_eq!(controller.reaped(), 1);
}

#[test]
fn broker_waiter_times_out_or_is_answered_by_the_registration_that_reaches_it() {
    let controller = start_controller(Duration::from_secs(30));

    // No broker: the waiter is answered by its timeout, and not before.
    let t0 = Instant::now();
    assert!(!controller.wait_for_brokers(1, Duration::from_millis(300)));
    assert!(t0.elapsed() >= Duration::from_millis(300));

    // A waiter for two brokers, queued before either connects: the second
    // registration answers it, well inside its timeout. The brokers'
    // delay only makes that order the likely one; a waiter queued after
    // them is answered at once, and every assertion holds either way.
    let addr = controller.addr();
    let t0 = Instant::now();
    let brokers = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        let first = Broker::connect(addr, "DC1").unwrap();
        let second = Broker::connect(addr, "DC2").unwrap();
        (first, second)
    });
    assert!(controller.wait_for_brokers(2, Duration::from_secs(20)));
    let waited = t0.elapsed();
    assert!(waited >= Duration::from_millis(200), "answered before a broker connected");
    assert!(waited < Duration::from_secs(5), "answered {waited:?} after the wait began");
    let _brokers = brokers.join().unwrap();
    assert_eq!(controller.broker_count(), 2);
}
