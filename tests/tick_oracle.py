"""The tick-synchronous drain, kept test-side as the parity oracle.

``FleetServer.run`` is the event-driven loop; this is the loop it
replaced — one cohort per camera period, every device drained before
the next tick — driving only the public ``scheduler.submit`` /
``DeviceWorker.launch``.  With zero jitter, drops and phase spread both
see identical arrivals, and whenever each device keeps up within its
camera period they form identical batches; serial pipelines' "adapt
between every pair of consecutive frames" also only holds here.
"""

from repro.serve import FrameRequest


def run_ticks(server, num_ticks):
    """Serve ``num_ticks`` cohorts through ``server``'s workers."""
    config = server.config
    for tick in range(num_ticks):
        if all(session.exhausted for session in server.registry):
            break
        arrival_ms = tick * config.period_ms
        for session in server.registry:
            frame = session.next_frame()
            if frame is None:
                continue
            worker = server.workers[server.device_of(session.stream_id)]
            worker.scheduler.submit(
                FrameRequest(
                    stream_id=session.stream_id,
                    frame_index=session.frames_ingested - 1,
                    arrival_ms=arrival_ms,
                    deadline_ms=arrival_ms + config.deadline_ms,
                    payload=(session, frame),
                )
            )
        for worker in server.workers:
            while worker.scheduler.pending_count:
                worker.device_free_ms = worker.launch(
                    max(worker.device_free_ms, arrival_ms)
                )
    return server._build_report(max(w.device_free_ms for w in server.workers))
