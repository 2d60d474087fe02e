//! `qcm serve --listen <addr>` — the mining job service over HTTP.
//!
//! The command runs the versioned HTTP/1.1 JSON API of [`qcm_http::Api`]:
//! `POST /v1/jobs`, `GET /v1/jobs/{id}?wait_ms=`, `DELETE /v1/jobs/{id}`,
//! `GET`/`PUT /v1/graphs`, `GET /metrics`, `GET /healthz`. Multi-tenant auth
//! comes from repeatable `--token <token>=<tenant>` (comma-separated);
//! without tokens the service is open and trusts `X-Qcm-Tenant`.
//!
//! Errors carry a stable machine-readable code (`qcm_core::api::ErrorCode`)
//! mapped to HTTP through `ErrorCode::http_status` (shed load → `429` +
//! `Retry-After`). Graph paths in requests are confined to `--graph-root`,
//! or to the working directory when it is not given, and are loaded
//! through the shared stat-aware registry: a repeat submit of an unchanged
//! path skips the file read and the content hash, an edited file is
//! reloaded.

use crate::commands::{FlagSpec, Flags};
use qcm::QcmError;
use qcm_http::{Api, AuthConfig, Server, ServerConfig};
use qcm_service::{AdmissionControl, MiningService, ServiceConfig};
use qcm_sync::Arc;
use std::io::{BufRead, Write};
use std::time::Duration;

const SERVE_FLAGS: FlagSpec = FlagSpec {
    values: &[
        "workers",
        "max-queued",
        "max-in-flight",
        "quota",
        "cache-capacity",
        "cache-ttl-ms",
        "listen",
        "token",
        "graph-root",
    ],
    switches: &[],
};

/// `qcm serve …` — binds the HTTP listener, then drains the service before
/// exiting.
pub fn serve(args: &[String]) -> Result<(), QcmError> {
    let flags = Flags::parse(args, &SERVE_FLAGS)?;
    let addr = flags.values.get("listen").ok_or_else(|| {
        QcmError::InvalidConfig(
            "qcm serve requires --listen <addr> (e.g. --listen 127.0.0.1:8080)".into(),
        )
    })?;
    serve_http(api_from_flags(&flags)?, addr)
}

/// Builds the service API from the `qcm serve` flags. Every flag is checked
/// before the worker pool starts.
fn api_from_flags(flags: &Flags) -> Result<Api, QcmError> {
    let workers: usize = flags.get("workers", 2usize)?;
    if workers == 0 {
        return Err(QcmError::InvalidConfig(
            "--workers must be at least 1".into(),
        ));
    }
    let config = ServiceConfig {
        workers,
        admission: AdmissionControl {
            max_queued: flags.get("max-queued", 64usize)?,
            max_in_flight: flags.get("max-in-flight", usize::MAX)?,
            per_tenant_quota: flags.get("quota", 16usize)?,
        },
        cache_capacity: flags.get("cache-capacity", 128usize)?,
        cache_ttl: flags
            .get_opt::<u64>("cache-ttl-ms")?
            .map(Duration::from_millis),
        ..ServiceConfig::default()
    };
    let auth = match flags.values.get("token") {
        None => AuthConfig::open(),
        Some(raw) => AuthConfig::with_tokens(parse_tokens(raw)?),
    };
    // Network callers must not be able to make the server read arbitrary
    // local files, so graph paths are always confined to a root.
    let graph_root = match flags.values.get("graph-root") {
        Some(dir) => dir.into(),
        None => std::env::current_dir()
            .map_err(|e| QcmError::InvalidConfig(format!("cannot resolve --graph-root: {e}")))?,
    };
    Ok(Api::over(MiningService::start(config), auth).with_graph_root(graph_root))
}

/// Parses `--token tok=tenant[,tok2=tenant2,…]`. A token listed twice is
/// rejected: it would otherwise silently authenticate as the last tenant.
/// The error names the entries by position so the secret is not echoed.
fn parse_tokens(raw: &str) -> Result<Vec<(String, String)>, QcmError> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for (index, pair) in raw.split(',').enumerate() {
        let (token, tenant) = pair
            .split_once('=')
            .map(|(token, tenant)| (token.trim().to_string(), tenant.trim().to_string()))
            .filter(|(token, tenant)| !token.is_empty() && !tenant.is_empty())
            .ok_or_else(|| {
                QcmError::InvalidConfig(format!(
                    "invalid --token entry {pair:?} (expected <token>=<tenant>)"
                ))
            })?;
        if let Some(first) = pairs.iter().position(|(seen, _)| *seen == token) {
            return Err(QcmError::InvalidConfig(format!(
                "--token entry {} repeats the token of entry {} (a token maps to one tenant)",
                index + 1,
                first + 1
            )));
        }
        pairs.push((token, tenant));
    }
    Ok(pairs)
}

/// Binds, announces the address, then holds the process open until `quit`
/// on stdin (graceful drain) or the process is killed.
fn serve_http(api: Api, addr: &str) -> Result<(), QcmError> {
    let authed = api.auth().requires_token();
    let server = Server::start(
        Arc::new(api),
        ServerConfig {
            addr: addr.to_string(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| QcmError::InvalidConfig(format!("cannot listen on {addr:?}: {e}")))?;
    println!(
        "qcm serve listening on http://{} (API v1{}); `quit` on stdin stops it",
        server.local_addr(),
        if authed {
            ", token auth"
        } else {
            ", open access"
        },
    );
    let _ = std::io::stdout().flush();
    let mut quit = false;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| QcmError::Engine(format!("stdin read error: {e}")))?;
        if matches!(line.trim(), "quit" | "exit" | "shutdown") {
            quit = true;
            break;
        }
    }
    if !quit {
        // stdin hit EOF (e.g. backgrounded with stdin on /dev/null): keep
        // the listener up until the process is signalled.
        loop {
            qcm_sync::thread::sleep(Duration::from_secs(3600));
        }
    }
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm::prelude::{ErrorCode, JobView, SubmitRequest};
    use qcm_graph::io;
    use qcm_http::{api::MAX_WAIT, wire};

    /// Runs `f` against the API that `qcm serve --graph-root <dir> <args>`
    /// builds, where `<dir>` holds a tiny planted graph whose path is
    /// passed to `f`.
    fn with_served_tiny_graph<R>(tag: &str, args: &[&str], f: impl FnOnce(&Api, &str) -> R) -> R {
        let dir = std::env::temp_dir().join(format!("qcm_serve_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        let dataset = qcm_gen::datasets::tiny_test_dataset(9);
        io::write_edge_list_file(&dataset.graph, &path).unwrap();
        let mut argv = vec![
            "--graph-root".to_string(),
            dir.to_string_lossy().into_owned(),
        ];
        argv.extend(args.iter().map(|a| a.to_string()));
        let api = api_from_flags(&Flags::parse(&argv, &SERVE_FLAGS).unwrap()).unwrap();
        let result = f(&api, &path.to_string_lossy());
        api.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        result
    }

    fn tiny_request(path: &str) -> SubmitRequest {
        SubmitRequest::new(path.to_string(), 0.8, 6)
    }

    fn wait_terminal(api: &Api, job: u64, tenant: &str) -> JobView {
        let view = api.job(job, MAX_WAIT, tenant).unwrap();
        assert!(view.outcome.is_some(), "job {job} still running: {view:?}");
        view
    }

    #[test]
    fn serve_without_listen_is_an_invalid_config_naming_the_flag() {
        let args = ["--workers".to_string(), "1".to_string()];
        let Err(QcmError::InvalidConfig(msg)) = serve(&args) else {
            panic!("serve without --listen must be an InvalidConfig error");
        };
        assert!(msg.contains("--listen"), "{msg}");
    }

    #[test]
    fn submit_twice_reports_cache_hit_in_json() {
        with_served_tiny_graph("hit", &[], |api, path| {
            let cold = api.submit(&tiny_request(path), "default").unwrap();
            let cold_json = wire::submit_response_to_json(&cold).render();
            assert!(cold_json.contains("\"cache_hit\":false"), "{cold_json}");
            wait_terminal(api, cold.job, "default");
            let hot = api.submit(&tiny_request(path), "default").unwrap();
            let hot_json = wire::submit_response_to_json(&hot).render();
            assert!(hot_json.contains("\"cache_hit\":true"), "{hot_json}");
            let metrics = api.metrics();
            assert_eq!(metrics.cache_hits, 1);
            assert_eq!(metrics.jobs_mined, 1);
            assert_eq!(api.graph_loads(), 1, "repeat submit must not reload");
        });
    }

    #[test]
    fn nowait_submit_supports_status_and_fetch() {
        with_served_tiny_graph("nowait", &["--workers", "1"], |api, path| {
            let submitted = api.submit(&tiny_request(path), "lab").unwrap();
            assert_eq!(submitted.job, 1);
            let fetched = wait_terminal(api, submitted.job, "lab");
            let fetched_json = wire::job_view_to_json(&fetched).render();
            assert!(
                fetched_json.contains("\"tenant\":\"lab\""),
                "{fetched_json}"
            );
            let status = api.job(submitted.job, Duration::ZERO, "lab").unwrap();
            assert_eq!(status.status, "completed");
        });
    }

    #[test]
    fn metrics_prom_is_wellformed_exposition() {
        with_served_tiny_graph("prom", &[], |api, path| {
            let submitted = api.submit(&tiny_request(path), "default").unwrap();
            wait_terminal(api, submitted.job, "default");
            let prom = api.metrics_prometheus();
            qcm_obs::prometheus::check_text(&prom).expect("exposition must be well-formed");
            assert!(
                prom.contains("# TYPE qcm_service_jobs_mined_total counter"),
                "{prom}"
            );
            assert!(prom.contains("qcm_service_jobs_mined_total 1"), "{prom}");
            assert!(prom.contains("qcm_graph_edge_queries_total"), "{prom}");
        });
    }

    #[test]
    fn graph_paths_outside_the_root_are_unknown_graphs() {
        with_served_tiny_graph("confined", &[], |api, _| {
            let err = api
                .submit(&tiny_request("/etc/hosts"), "default")
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::UnknownGraph, "{err:?}");
        });
    }

    #[test]
    fn token_flag_parses_pairs_and_rejects_garbage() {
        let pairs = parse_tokens("a=alpha,b=beta").unwrap();
        assert_eq!(
            pairs,
            vec![
                ("a".to_string(), "alpha".to_string()),
                ("b".to_string(), "beta".to_string())
            ]
        );
        assert!(parse_tokens("missing-equals").is_err());
        assert!(parse_tokens("=tenant").is_err());
        assert!(parse_tokens("token=").is_err());
        let Err(QcmError::InvalidConfig(msg)) = parse_tokens("sekrit=alice,x=carol,sekrit=bob")
        else {
            panic!("a repeated token must be an InvalidConfig error");
        };
        assert!(msg.contains("entry 3") && msg.contains("entry 1"), "{msg}");
        assert!(
            !msg.contains("sekrit"),
            "the secret must not be echoed: {msg}"
        );
    }
}
