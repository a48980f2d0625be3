//! Minimal HTTP/1.0 GET support on the line-protocol listener.
//!
//! The serving stack already auto-detects foreign byte streams by their
//! first bytes (`PSHM` shared-memory handshakes, `PWRK` workload logs);
//! this module applies the same magic-sniffing idiom to HTTP: a request
//! line starting `GET <path> HTTP/` on the ordinary protocol port is
//! answered as a one-shot HTTP exchange and the connection closed — a
//! stock Prometheus (or `curl`) can scrape a shard or the router with
//! zero new ports and zero new listeners. Three routes exist:
//!
//! * `GET /metrics` — the Prometheus text exposition (what the `METRICS`
//!   verb returns), `200`;
//! * `GET /health` — the SLO verdict as JSON, `200` when `ok`/`warn`,
//!   `503` when `page`, so any HTTP load balancer can act on it;
//! * `GET /series?field=<name>[&res=fast|mid]` — one ring dump as
//!   JSON (what the `SERIES` verb returns).
//!
//! Only what a scraper needs is implemented: the header block is read and
//! discarded, the response always closes the connection (`HTTP/1.0`
//! semantics), and no other method is recognized — anything else still
//! parses as a (failing) protocol line, exactly as before.
//!
//! Recognizing the request line, bounding the header block and mapping a
//! route to its verb are wire rules and live in [`crate::conn`]; this
//! module is the response side: the status line and the JSON bodies.

use crate::protocol::SeriesReply;
use pitex_support::obs::slo::{HealthVerdict, SloStatus};
use pitex_support::obs::timeseries::SeriesKind;

/// One full HTTP/1.0 response, headers and body, ready to write.
pub fn response(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// The HTTP status line for a health verdict: `page` means the component
/// should be pulled from rotation, so it — and only it — maps to 503.
pub fn health_status_line(status: SloStatus) -> &'static str {
    match status {
        SloStatus::Page => "503 Service Unavailable",
        SloStatus::Ok | SloStatus::Warn => "200 OK",
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A [`HealthVerdict`] as a JSON object (the `GET /health` body).
pub fn health_json(verdict: &HealthVerdict) -> String {
    let mut out = String::from("{\"status\":");
    json_string(&mut out, verdict.status.name());
    out.push_str(",\"worst\":");
    json_string(&mut out, &verdict.worst);
    out.push_str(",\"slos\":[");
    for (i, slo) in verdict.slos.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_string(&mut out, &slo.name);
        out.push_str(",\"status\":");
        json_string(&mut out, slo.status.name());
        out.push_str(",\"window\":");
        json_string(&mut out, &slo.window);
        out.push_str(&format!(",\"burn\":{:.4}", slo.burn));
        out.push_str(",\"field\":");
        json_string(&mut out, &slo.field);
        out.push_str(",\"origin\":");
        json_string(&mut out, &slo.origin);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// A `SERIES` reply as a JSON object (the `GET /series` body). Scalar
/// points are JSON numbers; histogram points are their wire strings.
pub fn series_json(series: &SeriesReply) -> String {
    let mut out = String::from("{\"field\":");
    json_string(&mut out, &series.field);
    out.push_str(",\"res\":");
    json_string(&mut out, series.res.name());
    out.push_str(&format!(
        ",\"tick_ms\":{},\"window_ticks\":{},\"kind\":",
        series.tick_ms, series.window_ticks
    ));
    json_string(&mut out, series.kind.name());
    out.push_str(",\"points\":[");
    for (i, point) in series.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match series.kind {
            SeriesKind::Hist => json_string(&mut out, point),
            _ => out.push_str(point),
        }
    }
    out.push_str("]}\n");
    out
}

/// A scalar point as a compact token: integral values (counter deltas,
/// most quantiles) print without the `.0`, everything else as plain f64.
pub fn scalar_token(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitex_support::obs::slo::SloVerdict;
    use pitex_support::obs::timeseries::{SeriesDump, SeriesPoints, SeriesRes};
    use pitex_support::obs::LatencyHistogram;

    #[test]
    fn response_frames_the_body() {
        let r = response("200 OK", "text/plain", "hello\n");
        assert!(r.starts_with("HTTP/1.0 200 OK\r\n"), "{r}");
        assert!(r.contains("Content-Length: 6\r\n"), "{r}");
        assert!(r.ends_with("\r\n\r\nhello\n"), "{r}");
    }

    #[test]
    fn health_json_shape() {
        let verdict = HealthVerdict {
            status: SloStatus::Page,
            worst: "shard1".into(),
            slos: vec![SloVerdict {
                name: "latency".into(),
                status: SloStatus::Page,
                window: "fast".into(),
                burn: 12.5,
                field: "lat_hist".into(),
                origin: "shard1".into(),
            }],
        };
        let json = health_json(&verdict);
        assert!(json.contains("\"status\":\"page\""), "{json}");
        assert!(json.contains("\"worst\":\"shard1\""), "{json}");
        assert!(json.contains("\"burn\":12.5000"), "{json}");
        assert_eq!(health_status_line(verdict.status), "503 Service Unavailable");
        assert_eq!(health_status_line(SloStatus::Warn), "200 OK");
    }

    #[test]
    fn series_json_shapes() {
        let scalar = SeriesDump {
            field: "requests".into(),
            res: SeriesRes::Fast,
            tick_ms: 1000,
            window_ticks: 1,
            kind: SeriesKind::Counter,
            points: SeriesPoints::Scalar(vec![0.0, 12.0, 0.75]),
        };
        let json = series_json(&scalar.into());
        assert!(json.contains("\"points\":[0,12,0.75]"), "{json}");

        let mut h = LatencyHistogram::new();
        h.record(5);
        let hist = SeriesDump {
            field: "lat_hist".into(),
            res: SeriesRes::Mid,
            tick_ms: 1000,
            window_ticks: 10,
            kind: SeriesKind::Hist,
            points: SeriesPoints::Hist(vec![LatencyHistogram::new(), h]),
        };
        let json = series_json(&hist.into());
        assert!(json.contains("\"points\":[\"-\",\"3:1\"]"), "{json}");
    }
}
