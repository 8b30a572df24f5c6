#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <utility>

#include "analysis/doall.hpp"
#include "analysis/pipeline.hpp"
#include "codegen/cost_model.hpp"
#include "codegen/jit.hpp"
#include "codegen/pipeline.hpp"
#include "frontend/parser.hpp"
#include "ir/eval.hpp"
#include "ir/symbol.hpp"
#include "runtime/engine.hpp"
#include "runtime/ir_executor.hpp"
#include "service/admission.hpp"
#include "support/parse_schedule.hpp"
#include "trace/export.hpp"
#include "transform/coalesce.hpp"

namespace perfbench {

namespace analysis = coalesce::analysis;
namespace codegen = coalesce::codegen;
namespace frontend = coalesce::frontend;
namespace ir = coalesce::ir;
namespace runtime = coalesce::runtime;
namespace service = coalesce::service;
namespace transform = coalesce::transform;

namespace {

using Clock = std::chrono::steady_clock;

/// One timed call. Spans of one request share `request`; `parent` indexes
/// the enclosing span (-1 for a request's root span).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::string label;  ///< the program's label, on a request's root span
};

/// The daemon's engine sizing (--workers=4, default queue).
constexpr std::size_t kEngineWorkers = 4;
constexpr std::size_t kEngineQueue = 64;

// ---- the daemon's dynamic half, step by step (service/server.cpp) --------

ir::Program clone_program(const ir::Program& program) {
  ir::Program out{program.symbols, {}};
  for (const auto& root : program.roots) out.roots.push_back(ir::clone(*root));
  return out;
}

ir::Program permute_all(const ir::Program& current) {
  ir::Program next{current.symbols, {}};
  for (const auto& root : current.roots) {
    ir::LoopNest nest =
        codegen::permute_for_locality(ir::LoopNest{current.symbols, root});
    next.symbols = std::move(nest.symbols);
    next.roots.push_back(nest.root);
  }
  return next;
}

ir::Program mark_all(const ir::Program& current) {
  ir::Program next{current.symbols, {}};
  for (const auto& root : current.roots) {
    ir::LoopNest nest{current.symbols, root};
    analysis::analyze_and_mark(nest);
    next.symbols = std::move(nest.symbols);
    next.roots.push_back(nest.root);
  }
  return next;
}

bool runs_parallel(const ir::Loop& root) {
  return root.parallel && ir::constant_trip_count(root).has_value();
}

bool has_error(const std::vector<analysis::Diagnostic>& diagnostics) {
  return std::any_of(diagnostics.begin(), diagnostics.end(), [](const auto& d) {
    return d.severity == analysis::Severity::kError;
  });
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace

std::vector<std::string> prepare_keys(const std::string& source,
                                      bool locality) {
  service::AdmissionResult admission =
      service::admit(source, "<self-check>", service::DiagnosticsFormat::kJson);
  if (!admission.admitted) return {};
  ir::Program current = clone_program(admission.program);
  if (locality) current = permute_all(current);
  current = mark_all(current);
  auto coalesced = transform::coalesce_program(current);
  std::vector<std::string> keys;
  for (const auto& root : coalesced.program.roots) {
    if (!runs_parallel(*root)) continue;
    auto prepared =
        codegen::prepare(ir::LoopNest{coalesced.program.symbols, root});
    if (prepared.ok()) keys.push_back(prepared.value().cache_key);
  }
  return keys;
}

std::string admission_phase(const std::string& source) {
  return service::admit(source, "<self-check>",
                        service::DiagnosticsFormat::kJson)
      .reject_phase;
}

// ---- Tracer -----------------------------------------------------------------

struct Tracer::Impl {
  explicit Impl(const Workload& workload)
      : locality(workload.locality),
        engine(kEngineWorkers, kEngineQueue, /*pin_workers=*/false) {}

  bool locality;
  std::vector<analysis::AnalysisPass> passes =
      analysis::default_analysis_passes();
  runtime::Engine engine;
  /// Private to the cold-compile and warm-hit timings; launches use the
  /// process-wide default cache, as the daemon's do.
  codegen::JitCache private_cache;
  std::set<std::string> compiled_keys;

  Clock::time_point epoch = Clock::now();
  bool recording = false;
  std::uint64_t request = 0;
  std::int64_t request_span = -1;
  std::vector<Span> spans;
  /// This request's time per layer (µs), summed over its calls.
  std::map<std::string, double> layer_us;
  /// Per-request samples per metric name.
  std::map<std::string, std::vector<double>> samples;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch)
        .count();
  }

  struct Open {
    std::string name;
    std::int64_t start_ns;
  };
  Open open(std::string name) { return Open{std::move(name), now_ns()}; }

  /// Ends a call's span; returns its duration in µs.
  double close(const Open& open) {
    const std::int64_t end = now_ns();
    const double us = static_cast<double>(end - open.start_ns) / 1000.0;
    if (recording) {
      spans.push_back(
          Span{open.name, open.start_ns, end, request_span, request, {}});
      layer_us[open.name] += us;
    }
    return us;
  }

  void sample(const std::string& name, double value) {
    if (recording) samples[name].push_back(value);
  }

  /// The request's path through every layer in this process; returns ""
  /// or why the in-process result is wrong.
  std::string run_layers(const Op& op);
};

std::string Tracer::Impl::run_layers(const Op& op) {
  const service::Request request =
      submit_request(op.source, op.schedule, op.want_data, "");
  {
    auto t = open("protocol.encode_request");
    const std::vector<std::uint8_t> bytes = service::encode_request(request);
    close(t);
    auto d = open("protocol.decode_request");
    const bool decoded = service::decode_request(bytes).ok();
    close(d);
    if (!decoded) return "request does not decode";
  }
  {
    auto t = open("frontend.parse");
    auto parsed = frontend::parse_program(op.source);
    close(t);
    if (parsed.ok()) {
      for (const analysis::AnalysisPass& pass : passes) {
        auto p = open("analysis." + pass.name);
        const bool failed = has_error(pass.run(parsed.value()));
        close(p);
        if (failed) break;  // later passes assume this one held
      }
    }
  }
  auto a = open("service.admit");
  service::AdmissionResult admission =
      service::admit(op.source, "<request>", service::DiagnosticsFormat::kJson);
  close(a);
  if (!admission.admitted) {
    return admission.reject_phase == op.expect_phase
               ? std::string()
               : "refused in-process at '" + admission.reject_phase + "'";
  }
  if (!op.expect_phase.empty()) return "admitted in-process";

  ir::Program current = clone_program(admission.program);
  {
    // Timed on every workload; on the request path only under --locality.
    auto t = open("transform.permute");
    ir::Program permuted = permute_all(current);
    close(t);
    if (locality) current = std::move(permuted);
  }
  {
    auto t = open("analysis.mark");
    current = mark_all(current);
    close(t);
  }
  std::size_t bands = 0;
  {
    auto t = open("transform.coalesce");
    auto result = transform::coalesce_program(current);
    close(t);
    bands = result.bands_coalesced;
    current = ir::Program{std::move(result.program.symbols),
                          std::move(result.program.roots)};
  }
  sample("transform.bands_coalesced", static_cast<double>(bands));

  {
    auto t = open("runtime.engine_handoff");
    (void)engine.submit(1, [](std::int64_t) {}).get();
    close(t);
  }

  runtime::LaunchOptions opts;
  opts.schedule = runtime::ScheduleParams{runtime::Schedule::kGuided, 1};
  if (!op.schedule.empty()) {
    auto parsed = coalesce::support::parse_schedule(op.schedule);
    if (!parsed.ok()) return "schedule '" + op.schedule + "' does not parse";
    opts.schedule = parsed.value();
  }
  opts.locality = locality;
  opts.exec = runtime::ExecMode::kJit;

  ir::ArrayStore store(current.symbols);
  double fallback_roots = 0, dispatch_ops = 0;
  for (const ir::LoopPtr& root : current.roots) {
    if (!runs_parallel(*root)) {
      auto t = open("runtime.seq_exec");
      ir::Evaluator eval(current.symbols, store);
      eval.run(*root);
      close(t);
      continue;
    }
    const ir::LoopNest nest{current.symbols, root};
    auto p = open("codegen.prepare");
    auto prepared = codegen::prepare(nest);
    close(p);
    if (!prepared.ok()) {
      fallback_roots += 1;
    } else if (recording) {
      // The first sighting of a key in the traced requests compiles on
      // the private cache (cold); every sighting then times a warm hit.
      const std::string& key = prepared.value().cache_key;
      if (compiled_keys.insert(key).second) {
        auto c = open("codegen.jit_compile");
        auto kernel = private_cache.get_or_compile(prepared.value());
        const double us = close(c);
        if (!kernel.ok()) return "private JIT compile failed";
        sample("codegen.jit_compile_ms", us / 1000.0);
      }
      auto h = open("codegen.jit_hit");
      const bool hit = private_cache.get_or_compile(prepared.value()).ok();
      close(h);
      if (!hit) return "private JIT cache lookup failed";
    }
    auto t = open("runtime.exec");
    auto submitted = runtime::submit_ir(engine, nest, store, opts);
    if (!submitted.ok()) return "submit_ir: " + submitted.error().to_string();
    runtime::ForStats stats;
    try {
      stats = std::move(submitted).value().get();
    } catch (const std::exception& e) {
      return std::string("execution failed: ") + e.what();
    }
    close(t);
    if (!stats.completed()) return "in-process run stopped early";
    dispatch_ops += static_cast<double>(stats.dispatch_ops);
    sample("runtime.imbalance", stats.imbalance());
  }
  sample("codegen.jit_fallback_roots", fallback_roots);
  sample("runtime.dispatch_ops", dispatch_ops);

  std::vector<std::string> names;
  std::vector<std::vector<double>> contents;
  for (std::uint32_t raw = 0; raw < current.symbols.size(); ++raw) {
    const ir::VarId id{raw};
    if (current.symbols.kind(id) != ir::SymbolKind::kArray) continue;
    names.push_back(current.symbols.name(id));
    const auto data = store.data(id);
    contents.emplace_back(data.begin(), data.end());
  }
  std::vector<const std::vector<double>*> data;
  for (const auto& c : contents) data.push_back(&c);
  return compare_arrays(op, names, data);
}

Tracer::Tracer(const Workload& workload)
    : impl_(std::make_unique<Impl>(workload)) {}

Tracer::~Tracer() = default;

std::string Tracer::warm(const Op& op) {
  impl_->recording = false;
  impl_->layer_us.clear();
  return impl_->run_layers(op);
}

Outcome Tracer::trace(const Op& op, Client& client, std::string* why) {
  Impl& im = *impl_;
  im.recording = true;
  im.request = ++requests_;
  im.layer_us.clear();
  const std::int64_t root_start = im.now_ns();
  const std::size_t root_index = im.spans.size();
  im.spans.push_back(
      Span{"request", root_start, root_start, -1, im.request, op.label});
  im.request_span = static_cast<std::int64_t>(root_index);

  const std::string in_process = im.run_layers(op);

  service::Request ping;
  ping.type = service::MessageType::kPing;
  auto p = im.open("transport.ping");
  const bool pinged = client.call(ping).ok;
  im.close(p);

  const service::Request request =
      submit_request(op.source, op.schedule, op.want_data, "");
  auto r = im.open("ledger.roundtrip");
  const Client::Result result = client.call(request);
  const double roundtrip_us = im.close(r);

  const Outcome outcome = classify(op, result, why);
  if (result.ok) {
    auto e = im.open("protocol.encode_response");
    const std::vector<std::uint8_t> bytes =
        service::encode_response(result.response);
    im.close(e);
    auto d = im.open("protocol.decode_response");
    const bool decoded = service::decode_response(bytes).ok();
    im.close(d);
    im.sample("protocol.reply_bytes", static_cast<double>(bytes.size()));
    if (!decoded) *why = "reply does not re-decode";
  }
  im.spans[root_index].end_ns = im.now_ns();
  im.request_span = -1;

  // Per-request layer times; the ledger sums the rows on the path.
  static const char* const kPath[] = {
      "protocol.encode_request",  "protocol.decode_request",
      "service.admit",            "analysis.mark",
      "transform.coalesce",       "runtime.exec",
      "runtime.seq_exec",         "protocol.encode_response",
      "protocol.decode_response", "transport.ping"};
  for (const auto& [name, us] : im.layer_us) {
    if (name == "codegen.jit_compile") continue;  // sampled per compile
    im.samples[name + "_us"].push_back(us);
  }
  if (result.ok && pinged) {
    double path_us = 0.0;
    for (const char* name : kPath) {
      auto it = im.layer_us.find(name);
      if (it != im.layer_us.end()) path_us += it->second;
    }
    if (im.locality) path_us += im.layer_us["transform.permute"];
    im.samples["ledger.unexplained_us"].push_back(roundtrip_us - path_us);
  }
  if (outcome == Outcome::kFailed) {
    // The daemon's wait stays out of the figures: drop its round trip.
    auto& rt = im.samples["ledger.roundtrip_us"];
    if (!rt.empty()) rt.pop_back();
  }
  if (outcome == Outcome::kExpected && (!in_process.empty() || !why->empty())) {
    if (why->empty()) *why = op.label + ": in-process: " + in_process;
    return Outcome::kWrong;
  }
  return outcome;
}

std::vector<Tracer::Metric> Tracer::metrics(double untraced_roundtrip_us) const {
  const auto& s = impl_->samples;
  auto get = [&](const std::string& name) -> const std::vector<double>& {
    static const std::vector<double> kEmpty;
    auto it = s.find(name);
    return it == s.end() ? kEmpty : it->second;
  };
  std::vector<Metric> out;
  auto time = [&](const std::string& name, const char* unit = "us") {
    out.push_back(Metric{name, median(get(name)), unit});
  };
  auto count = [&](const std::string& name, const char* unit = "count") {
    out.push_back(Metric{name, mean(get(name)), unit});
  };
  time("frontend.parse_us");
  time("service.admit_us");
  time("analysis.verify_us");
  time("analysis.lint_us");
  time("analysis.race_us");
  time("analysis.mark_us");
  time("transform.permute_us");
  time("transform.coalesce_us");
  count("transform.bands_coalesced");
  time("codegen.prepare_us");
  time("codegen.jit_hit_us");
  time("codegen.jit_compile_ms", "ms");
  count("codegen.jit_fallback_roots");
  time("runtime.engine_handoff_us");
  time("runtime.exec_us");
  time("runtime.seq_exec_us");
  count("runtime.dispatch_ops");
  time("runtime.imbalance", "ratio");
  time("protocol.encode_request_us");
  time("protocol.decode_request_us");
  time("protocol.encode_response_us");
  time("protocol.decode_response_us");
  count("protocol.reply_bytes", "bytes");
  time("transport.ping_us");
  time("ledger.roundtrip_us");
  out.push_back(Metric{"ledger.untraced_roundtrip_us", untraced_roundtrip_us, "us"});
  time("ledger.unexplained_us");
  return out;
}

bool Tracer::write_spans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const auto& spans = impl_->spans;
  char buf[64];
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& sp = spans[k];
    if (k > 0) out << ",\n";
    out << "{\"name\":\"" << coalesce::trace::json_escape(sp.name)
        << "\",\"ph\":\"X\",\"pid\":1";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f", sp.start_ns / 1000.0);
    out << buf;
    std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                  (sp.end_ns - sp.start_ns) / 1000.0);
    out << buf << ",\"tid\":" << sp.request << ",\"args\":{\"id\":" << k
        << ",\"parent\":" << sp.parent << ",\"request\":" << sp.request;
    if (!sp.label.empty()) {
      out << ",\"label\":\"" << coalesce::trace::json_escape(sp.label) << "\"";
    }
    out << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
