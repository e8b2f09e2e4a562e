// kcpq_top: one-shot pretty-printer for the embedded telemetry exporter's
// /queries endpoint (obs/http_exporter.h). Connects to a running kcpq
// process started with --obs-port, fetches the in-flight / flight-recorder
// listing, and renders it as a fixed-width table — `top` for queries,
// without the refresh loop (pipe through `watch` for that).
//
// Usage:
//   kcpq_top <host:port> [--state=live|done|all]
//   kcpq kcp ... --obs-port=0 ... | kcpq_top --stdin-endpoint
//
// --stdin-endpoint reads the producer's stdout looking for the
// "# obs: exporter listening on HOST:PORT" line the CLI prints, waits for
// the producer's first result line, then scrapes that endpoint (the
// producer's --obs-linger-ms keeps it up) — which makes a shell pipeline
// the whole smoke
// test (tests/obs_top_smoke.cmake). The JSON parser below handles exactly
// the flat objects /queries emits; it is not a general-purpose parser.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/http_exporter.h"

namespace {

// Extracts the value of `"key":` in the flat JSON object `obj` as raw
// text (number, quoted string, true/false/null). Empty when absent.
std::string RawField(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = obj.find(needle);
  if (at == std::string::npos) return "";
  size_t pos = at + needle.size();
  if (pos >= obj.size()) return "";
  if (obj[pos] == '"') {
    const size_t end = obj.find('"', pos + 1);
    if (end == std::string::npos) return "";
    return obj.substr(pos + 1, end - pos - 1);
  }
  size_t end = pos;
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
  return obj.substr(pos, end - pos);
}

// Splits the /queries "queries":[...] array into one string per flat
// object. The entries contain no nested objects (SummaryJson is rendered
// with include_pruning=false there), so brace matching is trivial.
std::vector<std::string> SplitEntries(const std::string& body) {
  std::vector<std::string> entries;
  const size_t array = body.find("\"queries\":[");
  if (array == std::string::npos) return entries;
  size_t pos = array + std::strlen("\"queries\":[");
  while (pos < body.size() && body[pos] != ']') {
    if (body[pos] == '{') {
      const size_t end = body.find('}', pos);
      if (end == std::string::npos) break;
      entries.push_back(body.substr(pos, end - pos + 1));
      pos = end + 1;
    } else {
      ++pos;
    }
  }
  return entries;
}

std::string FormatSeconds(const std::string& raw) {
  if (raw.empty() || raw == "null") return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fms", std::atof(raw.c_str()) * 1e3);
  return buf;
}

void PrintTable(const std::string& body) {
  const std::vector<std::string> entries = SplitEntries(body);
  std::printf("%6s %-5s %-6s %-22s %-9s %9s %8s %8s %6s %12s %s\n", "ID",
              "STATE", "KIND", "FAMILY", "SCHED", "ELAPSED", "NODES",
              "PAGES", "PARKS", "BOUND", "OUTCOME");
  for (const std::string& e : entries) {
    const std::string state = RawField(e, "state");
    const std::string elapsed = FormatSeconds(
        RawField(e, state == "live" ? "elapsed_seconds" : "seconds"));
    const std::string bound = RawField(e, "bound");
    const std::string outcome = RawField(e, "outcome");
    std::printf("%6s %-5s %-6s %-22s %-9s %9s %8s %8s %6s %12.12s %s\n",
                RawField(e, "id").c_str(), state.c_str(),
                RawField(e, "kind").c_str(), RawField(e, "family").c_str(),
                RawField(e, "scheduler").c_str(), elapsed.c_str(),
                RawField(e, "node_accesses").c_str(),
                RawField(e, "pages_read").c_str(),
                RawField(e, "io_parks").c_str(),
                bound.empty() || bound == "null" ? "-" : bound.c_str(),
                outcome.empty() ? "-" : outcome.c_str());
  }
  std::printf("# %zu queries (live=%s, done_total=%s)\n", entries.size(),
              RawField(body, "live").c_str(),
              RawField(body, "done_total").c_str());
}

// Reads producer stdout until the CLI's exporter banner appears, then on
// to the producer's first result line (the first line after it not
// starting with '#'). The CLI prints results only once its queries have
// finished and flushes them before its --obs-linger-ms window, so a
// scrape made then sees completed queries while the exporter is still up.
// True with host/port filled when the banner was seen. Lines are echoed
// so the pipeline loses nothing.
bool EndpointFromStdin(std::string* host, uint16_t* port) {
  char line[4096];
  bool found = false;
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::fputs(line, stdout);
    if (found) {
      if (line[0] != '#') break;
      continue;
    }
    const char* at = std::strstr(line, "listening on ");
    if (at == nullptr) continue;
    const char* spec = at + std::strlen("listening on ");
    const char* colon = std::strrchr(spec, ':');
    if (colon == nullptr) continue;
    host->assign(spec, colon - spec);
    *port = static_cast<uint16_t>(std::atoi(colon + 1));
    found = true;
  }
  std::fflush(stdout);
  return found;
}

int Usage() {
  std::fprintf(stderr,
               "usage: kcpq_top <host:port> [--state=live|done|all]\n"
               "       ... --obs-port=0 ... | kcpq_top --stdin-endpoint "
               "[--state=...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string endpoint;
  std::string state = "all";
  bool from_stdin = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--state=", 0) == 0) {
      state = arg.substr(std::strlen("--state="));
    } else if (arg == "--stdin-endpoint") {
      from_stdin = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      endpoint = arg;
    }
  }

  std::string host;
  uint16_t port = 0;
  if (from_stdin) {
    if (!EndpointFromStdin(&host, &port)) {
      std::fprintf(stderr,
                   "kcpq_top: no 'listening on host:port' line on stdin "
                   "(start the producer with --obs-port)\n");
      return 1;
    }
  } else {
    if (endpoint.empty()) return Usage();
    const size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) return Usage();
    host = endpoint.substr(0, colon);
    port = static_cast<uint16_t>(std::atoi(endpoint.c_str() + colon + 1));
  }

  // A few connect retries: direct mode tolerates a slow start.
  std::string target = "/queries?state=";
  target.append(state);
  std::string body;
  int status = 0;
  bool ok = false;
  for (int attempt = 0; attempt < 50 && !ok; ++attempt) {
    ok = kcpq::obs::HttpGet(host, port, target, &body, &status) &&
         status == 200;
  }
  if (!ok) {
    std::fprintf(stderr, "kcpq_top: cannot scrape %s:%u (HTTP %d)\n",
                 host.c_str(), static_cast<unsigned>(port), status);
    return 1;
  }
  PrintTable(body);
  // Pipeline mode: drain the rest of the producer's output so it never
  // blocks on a full pipe after the scrape.
  if (from_stdin) {
    char line[4096];
    while (std::fgets(line, sizeof(line), stdin) != nullptr) {
      std::fputs(line, stdout);
    }
  }
  return 0;
}
