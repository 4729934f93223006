#include "runtime/sweep_service/service.hpp"

#include <charconv>
#include <cstdio>
#include <exception>
#include <future>
#include <iterator>
#include <map>

#include "obs/span.hpp"
#include "runtime/sweep_service/registry.hpp"

namespace parbounds::service {

namespace {

/// Cached payload: the cost as %.17g text — round-trips the double
/// exactly and keeps cache entries human-inspectable.
std::string cost_payload(double cost) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", cost);
  return buf;
}

bool parse_cost(const std::string& payload, double& cost) {
  const auto res =
      std::from_chars(payload.data(), payload.data() + payload.size(), cost);
  return res.ec == std::errc() &&
         res.ptr == payload.data() + payload.size();
}

}  // namespace

SweepService::SweepService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      metrics_(),
      hit_id_(metrics_.counter("cache.hit")),
      miss_id_(metrics_.counter("cache.miss")),
      evict_id_(metrics_.counter("cache.evict")),
      corrupt_id_(metrics_.counter("cache.corrupt")),
      shed_id_(metrics_.counter("queue.shed")),
      exec_id_(metrics_.counter("service.exec")),
      depth_id_(metrics_.gauge("queue.depth")),
      cache_(cfg_.cache),
      runner_({.jobs = cfg_.jobs == 0 ? 1 : cfg_.jobs}) {
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SweepService::~SweepService() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
}

void SweepService::submit(Request req, Callback cb) {
  bool shed = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= cfg_.queue_capacity) {
      shed = true;
    } else {
      const obs::Span admit(obs::process_tracer(), "service.admit", req.id);
      queue_.push_back(Pending{std::move(req), std::move(cb)});
      metrics_.record_max(depth_id_, queue_.size());
    }
  }
  if (shed) {
    metrics_.add(shed_id_);
    Response resp;
    resp.id = req.id;
    resp.status = Status::Retry;
    cb(std::move(resp));
    return;
  }
  cv_.notify_one();
}

Response SweepService::call(Request req) {
  std::promise<Response> done;
  auto fut = done.get_future();
  submit(std::move(req),
         [&done](Response resp) { done.set_value(std::move(resp)); });
  return fut.get();
}

std::string SweepService::stats_json() const {
  return metrics_.snapshot().to_json();
}

void SweepService::dispatch_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    handle_batch(std::move(batch));
  }
}

void SweepService::handle_batch(std::vector<Pending> batch) {
  obs::Tracer* tracer = obs::process_tracer();

  // Pass 1: answer everything the cache (or a trivial op) can answer.
  // Only genuine misses survive into the runner batch, deduplicated by
  // cache key — a batch holding the same request twice executes it once.
  std::vector<std::string> miss_keys;           // unique, first-seen order
  std::map<std::string, std::vector<std::size_t>> miss_of;  // key -> batch idx
  std::vector<std::size_t> stats_waiting;       // answered after pass 2
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i].req;
    Response resp;
    resp.id = req.id;
    switch (req.op) {
      case Op::Ping:
      case Op::Shutdown:
        break;  // plain ok ack; shutdown semantics live in the serve loop
      case Op::Stats:
        // Deferred: a stats snapshot taken mid-batch would not reflect
        // the runs admitted ahead of it.
        stats_waiting.push_back(i);
        continue;
      case Op::Cell:
        // Cells are the fleet workers' op (fleet/worker.hpp) and have
        // no JSON form; the daemon's unit of exchange is the single run.
        resp.status = Status::Error;
        resp.error = "cell op is served by fleet workers, not the daemon";
        break;
      case Op::Run: {
        resp = run_request(req);
        if (resp.status == Status::Ok && !resp.cached) {
          const std::string key = cache_key(req);
          auto& indices = miss_of[key];
          if (indices.empty()) miss_keys.push_back(key);
          indices.push_back(i);
          continue;  // answered by pass 2
        }
        break;
      }
    }
    batch[i].cb(std::move(resp));
  }

  // Pass 2: execute the unique misses through the runner (inline when
  // jobs=1), then publish each result to the cache and answer every
  // request that mapped to it.
  if (!miss_keys.empty()) {
    std::vector<Response> results;
    if (cfg_.miss_executor) {
      // Fleet-backed daemon: hand the deduplicated misses to the
      // external executor in one batch. Same exec accounting, same
      // cache publication below — only where the kernels run differs.
      const obs::Span run_span(tracer, "service.run", miss_keys.size());
      std::vector<Request> misses;
      misses.reserve(miss_keys.size());
      for (const std::string& key : miss_keys)
        misses.push_back(batch[miss_of[key].front()].req);
      metrics_.add(exec_id_, misses.size());
      results = cfg_.miss_executor(misses);
      if (results.size() != misses.size()) {
        Response bad;
        bad.status = Status::Error;
        bad.error = "miss executor returned " +
                    std::to_string(results.size()) + " responses for " +
                    std::to_string(misses.size()) + " requests";
        results.assign(misses.size(), bad);
      }
    } else {
      const obs::Span run_span(tracer, "service.run", miss_keys.size());
      results = runner_.map<Response>(
          miss_keys.size(), [&](std::uint64_t j) -> Response {
            const Request& req = batch[miss_of[miss_keys[j]].front()].req;
            Response resp;
            metrics_.add(exec_id_);
            double cost = 0.0;
            std::string err;
            try {
              if (run_spec(req.spec, req.seed, cost, err)) {
                resp.has_cost = true;
                resp.cost = cost;
              } else {
                resp.status = Status::Error;
                resp.error = err;
              }
            } catch (const std::exception& e) {
              resp.status = Status::Error;
              resp.error = e.what();
            }
            return resp;
          });
    }

    for (std::size_t j = 0; j < miss_keys.size(); ++j) {
      const Response& result = results[j];
      if (result.status == Status::Ok && result.has_cost) {
        const obs::Span commit_span(tracer, "service.commit", j);
        const std::size_t evicted =
            cache_.insert(miss_keys[j], cost_payload(result.cost));
        if (evicted > 0) metrics_.add(evict_id_, evicted);
      }
      for (const std::size_t i : miss_of[miss_keys[j]]) {
        Response resp = result;
        resp.id = batch[i].req.id;
        batch[i].cb(std::move(resp));
      }
    }
  }

  for (const std::size_t i : stats_waiting) {
    Response resp;
    resp.id = batch[i].req.id;
    resp.stats_json = stats_json();
    batch[i].cb(std::move(resp));
  }
}

Response SweepService::run_request(const Request& req) {
  Response resp;
  resp.id = req.id;

  std::string payload;
  switch (cache_.fetch(cache_key(req), payload)) {
    case FetchResult::Hit: {
      double cost = 0.0;
      if (parse_cost(payload, cost)) {
        metrics_.add(hit_id_);
        resp.cached = true;
        resp.has_cost = true;
        resp.cost = cost;
        return resp;
      }
      // Validated bytes that don't parse as a cost: treat as corrupt.
      metrics_.add(corrupt_id_);
      metrics_.add(miss_id_);
      return resp;
    }
    case FetchResult::Corrupt:
      metrics_.add(corrupt_id_);
      metrics_.add(miss_id_);
      return resp;
    case FetchResult::Miss:
      metrics_.add(miss_id_);
      return resp;
  }
  return resp;  // unreachable; keeps -Wreturn-type quiet
}

}  // namespace parbounds::service
