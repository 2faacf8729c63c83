// Serve phase: the real `inspector_query --store DIR --serve SOCK
// --workers N` router, driven by closed-loop socket clients that send
// the wire form of the mix (paginated requests drained with `next`)
// and compare every reply with the in-process engine's bytes.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "net/client.h"
#include "obs/metrics.h"
#include "pipeline.h"
#include "query/wire.h"
#include "spans.h"

extern char** environ;

namespace perfbench {

namespace q = inspector::query;
namespace net = inspector::net;

namespace {

/// Parent pid and state of a live process, from /proc/<pid>/stat.
bool proc_stat(pid_t pid, pid_t& ppid, char& state) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return false;
  const auto paren = line.rfind(')');
  if (paren == std::string::npos || paren + 4 > line.size()) return false;
  state = line[paren + 2];
  ppid = static_cast<pid_t>(std::stol(line.substr(paren + 4)));
  return true;
}

bool alive(pid_t pid) {
  pid_t ppid = 0;
  char state = 'X';
  return proc_stat(pid, ppid, state) && state != 'Z' && state != 'X';
}

std::vector<pid_t> children_of(pid_t parent) {
  std::vector<pid_t> out;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") !=
                            std::string::npos) {
      continue;
    }
    pid_t ppid = 0;
    char state = 'X';
    const auto pid = static_cast<pid_t>(std::stol(name));
    if (proc_stat(pid, ppid, state) && ppid == parent) out.push_back(pid);
  }
  return out;
}

std::uint64_t registry_counter(const char* name) {
  for (const auto& s : inspector::obs::Registry::global().snapshot().series) {
    if (s.name == name) return s.counter_value;
  }
  return 0;
}

/// Raw text of a top-level field of a flat JSON line (no nesting).
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  auto begin = at + needle.size();
  if (begin < line.size() && line[begin] == '"') {
    const auto end = line.find('"', begin + 1);
    return line.substr(begin + 1, end - begin - 1);
  }
  const auto end = line.find_first_of(",}", begin);
  return line.substr(begin, end - begin);
}

}  // namespace

/// The router process and its forked workers. Stopping sends SIGTERM
/// (the router then stops and reaps its workers) and verifies that
/// every process is gone; a straggler is killed and reported.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv,
                const std::vector<std::string>& extra_env) {
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    std::vector<std::string> env_strings(extra_env);
    for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
    std::vector<char*> env;
    for (auto& e : env_strings) env.push_back(e.data());
    env.push_back(nullptr);
    pid_ = fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
      execve(args[0], args.data(), env.data());
      _exit(127);
    }
  }
  ~ServerProcess() { (void)stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] bool started() const noexcept { return pid_ > 0; }
  [[nodiscard]] bool running() const {
    if (pid_ <= 0) return false;
    int status = 0;
    return waitpid(pid_, &status, WNOHANG) == 0;
  }
  void record_workers() { workers_ = children_of(pid_); }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// True when the router and every worker have exited by themselves.
  bool stop() {
    if (pid_ <= 0) return true;
    bool clean = true;
    kill(pid_, SIGTERM);
    if (!reap(pid_, std::chrono::seconds(20))) {
      clean = false;
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    for (pid_t w : workers_) {
      // Orphans come to this process (a child subreaper): reap them.
      const auto deadline = Clock::now() + std::chrono::seconds(5);
      while (alive(w) && Clock::now() < deadline) {
        waitpid(w, nullptr, WNOHANG);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      waitpid(w, nullptr, WNOHANG);
      if (alive(w)) {
        clean = false;
        kill(w, SIGKILL);
        waitpid(w, nullptr, 0);
      }
    }
    pid_ = -1;
    workers_.clear();
    return clean;
  }

 private:
  static bool reap(pid_t pid, std::chrono::seconds limit) {
    const auto deadline = Clock::now() + limit;
    while (Clock::now() < deadline) {
      if (waitpid(pid, nullptr, WNOHANG) == pid) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  pid_t pid_ = -1;
  std::vector<pid_t> workers_;
};

// Defined here, where ServerProcess and QueryClient are complete.
Pipeline::Pipeline(RunConfig config) : cfg_(std::move(config)) {}
Pipeline::~Pipeline() { stop_server(); }

void Pipeline::build_scripts() {
  // Each client's pass is one session; the in-process engine answers
  // the same lines in a fresh session of its own, which gives the
  // expected bytes (pass 0, which also discovers the cursor ids the
  // `next` lines drain) and the in-process latency per line (pass 1).
  scripts_.assign(kClients, {});
  const auto exec = [&](q::QueryEngine::SessionId session,
                        const std::string& line, double& us) {
    std::uint64_t id = 0;
    const auto parsed = [&] {
      Span s("query.wire.parse");
      return q::wire::parse_request(line, &id);
    }();
    const auto t0 = Clock::now();
    inspector::Result<q::Reply> reply =
        !parsed.ok() ? inspector::Result<q::Reply>(parsed.status())
        : std::holds_alternative<q::Query>(parsed->op)
            ? sharded_engine_->run(session, std::get<q::Query>(parsed->op),
                                   {.page_size = parsed->page_size})
            : sharded_engine_->next(
                  session, std::get<q::wire::NextRequest>(parsed->op).cursor);
    us = us_since(t0);
    std::string bytes = [&] {
      Span s("query.wire.serialize");
      return q::wire::serialize_reply(id, reply);
    }();
    checks_.expect(reply.ok(), "in-process reply failed for " + line);
    return std::make_pair(std::move(reply), std::move(bytes));
  };
  for (unsigned c = 0; c < kClients; ++c) {
    ClientScript& script = scripts_[c];
    const auto session = sharded_engine_->open_session();
    std::uint64_t id = 1;
    for (std::size_t unit = 0; unit < kUnitsPerPass; ++unit) {
      const q::Query& query =
          mix_.queries[(c + unit * kClients) % mix_.queries.size()];
      const std::size_t kind = kind_of(query);
      const std::uint64_t page_size =
          paginatable(query) && unit % kPaginateEvery == 0 ? kPageSize : 0;
      std::string line = request_line(id, query, page_size);
      for (;;) {
        double us = 0;
        auto [reply, bytes] = exec(session, line, us);
        script.lines.push_back(line);
        script.expected.push_back(std::move(bytes));
        script.kind.push_back(kind);
        script.ids.push_back(id++);
        if (!reply.ok() || !reply->has_more) break;
        line = next_line(id, reply->cursor);
      }
    }
    (void)sharded_engine_->close_session(session);

    const auto timed = sharded_engine_->open_session();
    for (std::size_t j = 0; j < script.lines.size(); ++j) {
      double us = 0;
      const auto [reply, bytes] = exec(timed, script.lines[j], us);
      checks_.expect(bytes == script.expected[j],
                     "in-process replay differs: " + script.lines[j]);
      inproc_us_[script.kind[j]].push_back(us);
    }
    (void)sharded_engine_->close_session(timed);
  }
}

void Pipeline::start_server() {
  const std::string socket = cfg_.work_dir + "/serve.sock";
  std::vector<std::string> env;
  if (cfg_.trace) {
    trace_sink_ = cfg_.work_dir + "/server-trace.jsonl";
    env.push_back("INSPECTOR_TRACE=" + trace_sink_);
  }
  server_ = std::make_unique<ServerProcess>(
      std::vector<std::string>{cfg_.query_bin, "--store", store_dir_,
                               "--serve", socket, "--workers",
                               std::to_string(kServerWorkers),
                               "--analysis-threads",
                               std::to_string(kServerAnalysisThreads)},
      env);
  if (!server_->started()) throw std::runtime_error("fork failed");
  // The router listens only once every worker is ready.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (!std::filesystem::exists(socket)) {
    if (!server_->running() || Clock::now() > deadline) {
      throw std::runtime_error("the query server did not start");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server_->record_workers();
  checks_.expect(server_->worker_count() == kServerWorkers,
                 "router forked " + std::to_string(server_->worker_count()) +
                     " workers");
  for (unsigned c = 0; c < kClients; ++c) {
    auto client = [&] {
      Span s("net.connect");
      return net::QueryClient::connect(socket);
    }();
    if (!client.ok()) {
      throw std::runtime_error("connect failed: " + client.status().message());
    }
    clients_.push_back(std::move(client).value());
  }
}

void Pipeline::serve_begin() {
  served_passes_ = {};
  serve_errors_.assign(kClients, {});
  serve_broken_ = false;
  frames0_ = registry_counter("net_frames_sent_total");
  sent0_ = registry_counter("net_bytes_sent_total");
  recv0_ = registry_counter("net_bytes_received_total");
}

void Pipeline::serve_pass() {
  // Every client runs its script once on a fresh session (the set-up
  // connections serve the first pass) and the clients meet at the end.
  // The phase reports the quiet end of its passes' rates and latency
  // quantiles.
  const std::string socket = cfg_.work_dir + "/serve.sock";
  std::vector<std::vector<double>> lat(kClients);
  std::vector<std::array<std::vector<double>, kKindCount>> by_kind(kClients);
  std::vector<OpCount> counts(kClients);
  std::vector<std::string> errors(kClients);
  const auto client_pass = [&](unsigned c) {
    const ClientScript& script = scripts_[c];
    std::unique_ptr<net::QueryClient> client;
    if (c < clients_.size() && clients_[c] != nullptr) {
      client = std::move(clients_[c]);  // connected during set-up
    } else {
      auto connected = [&] {
        Span s("net.connect");
        return net::QueryClient::connect(socket);
      }();
      if (!connected.ok()) {
        errors[c] = "connect failed: " + connected.status().message();
        return;
      }
      client = std::move(connected).value();
    }
    for (std::size_t j = 0; j < script.lines.size(); ++j) {
      const std::size_t kind = script.kind[j];
      ++counts[c].attempted;
      const auto t0 = Clock::now();
      const auto reply = [&] {
        Span s("net.served.", kKinds[kind], tracer::next_op());
        return client->call(script.lines[j]);
      }();
      const double us = us_since(t0);
      if (!reply.ok()) {
        ++counts[c].failed;
        errors[c] = "call failed: " + reply.status().message();
        return;
      }
      lat[c].push_back(us);
      by_kind[c][kind].push_back(us);
      const std::string id_prefix =
          "{\"id\":" + std::to_string(script.ids[j]) + ",";
      if (reply->rfind(id_prefix, 0) != 0 || *reply != script.expected[j]) {
        errors[c] = "served reply differs for " + script.lines[j] +
                    "\n  served:   " + reply->substr(0, 200) +
                    "\n  expected: " + script.expected[j].substr(0, 200);
      }
    }
    // Exactly one reply per request: nothing may follow the goodbye.
    const inspector::Status bye = client->goodbye();
    const auto extra = client->next_reply();
    if (!bye.ok() || extra.ok() ||
        extra.status().code() != inspector::StatusCode::kExhausted) {
      errors[c] = "session did not end cleanly after its last reply";
    }
  };

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client_pass, c);
  for (auto& t : threads) t.join();
  const double wall_s = ms_since(t0) / 1e3;
  clients_.clear();
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  served_passes_.qps.push_back(static_cast<double>(all.size()) / wall_s);
  served_passes_.p50.push_back(quantile(all, 0.5));
  served_passes_.p99.push_back(quantile(all, 0.99));
  for (unsigned c = 0; c < kClients; ++c) {
    ops_.attempted += counts[c].attempted;
    ops_.failed += counts[c].failed;
    for (std::size_t k = 0; k < kKindCount; ++k) {
      served_us_[k].insert(served_us_[k].end(), by_kind[c][k].begin(),
                           by_kind[c][k].end());
    }
    if (!errors[c].empty()) {
      serve_broken_ = true;
      if (serve_errors_[c].empty()) serve_errors_[c] = errors[c];
    }
  }
}

void Pipeline::serve_report(MetricSink& e2e) {
  for (unsigned c = 0; c < kClients; ++c) {
    checks_.expect(serve_errors_[c].empty(),
                   "client " + std::to_string(c) + ": " + serve_errors_[c]);
  }
  e2e.put("served_qps", quiet_rate(served_passes_.qps), "1/s");
  e2e.put("served_p50_us", quiet_time(served_passes_.p50), "us");
  // A pass is over 1000 calls: ten beyond its p99.
  e2e.put("served_p99_us", quiet_time(served_passes_.p99), "us");
  frames_sent_ += registry_counter("net_frames_sent_total") - frames0_;
  bytes_sent_ += registry_counter("net_bytes_sent_total") - sent0_;
  bytes_received_ += registry_counter("net_bytes_received_total") - recv0_;
}

void Pipeline::stop_server() {
  if (server_ == nullptr) return;
  clients_.clear();
  checks_.expect(server_->stop(),
                 "a server or worker process outlived the run");
  server_.reset();
  if (trace_sink_.empty()) return;

  // Fold the router's and workers' spans into this run's table.
  std::ifstream in(trace_sink_);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (json_field(line, "type") == "span") lines.push_back(line);
  }
  std::unordered_map<std::string, std::uint64_t> ids;
  std::unordered_map<std::string, std::uint64_t> ops;
  std::erase_if(lines, [](const std::string& line) {
    return json_field(line, "span").empty() ||
           json_field(line, "start_unix_us").empty() ||
           json_field(line, "wall_us").empty();
  });
  for (const auto& line : lines) ids[json_field(line, "span")] = tracer::next_id();
  for (const auto& line : lines) {
    SpanRecord r;
    r.name = "server." + json_field(line, "name");
    r.id = ids[json_field(line, "span")];
    const auto parent = ids.find(json_field(line, "parent"));
    r.parent = parent == ids.end() ? 0 : parent->second;
    auto& op = ops[json_field(line, "trace")];
    if (op == 0) op = tracer::next_op();
    r.op = op;
    r.start_us = std::stod(json_field(line, "start_unix_us"));
    r.end_us = r.start_us + std::stod(json_field(line, "wall_us"));
    tracer::add(std::move(r));
  }
  trace_sink_.clear();
}

}  // namespace perfbench
