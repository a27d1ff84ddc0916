// Command-line plumbing shared by gir_cli, gir_serve and gir_router:
// the `--key value` parser, the two failure exits and the SIGTERM/SIGINT
// drain signal.
#ifndef GIR_TOOLS_TOOL_UTIL_H_
#define GIR_TOOLS_TOOL_UTIL_H_

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "core/status.h"

namespace gir {

/// `--key value` pairs and bare `--flag`s from argv[first] on; a word
/// without the `--` prefix where a key is expected makes ok() false.
class Args {
 public:
  Args(int argc, char** argv, int first = 1) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        error_ = "unexpected argument: " + key;
        return;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  std::optional<std::string> Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::optional<size_t> GetSize(const std::string& key) const {
    auto v = Get(key);
    if (!v.has_value()) return std::nullopt;
    return static_cast<size_t>(std::strtoull(v->c_str(), nullptr, 10));
  }

  std::optional<double> GetDouble(const std::string& key) const {
    auto v = Get(key);
    if (!v.has_value()) return std::nullopt;
    return std::strtod(v->c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

/// Usage error: one `error:` line on stderr, exit code 1.
inline int Fail(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return 1;
}

/// Runtime failure: one `error:` line on stderr, exit code 2.
inline int FailStatus(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

/// Blocks SIGTERM and SIGINT in the calling thread and fills `mask` with
/// them. Call it before any thread spawns: every thread inherits the mask,
/// so the main thread alone takes the signal via WaitForDrainSignal and
/// the drain runs in ordinary code, not a handler.
inline Status BlockDrainSignals(sigset_t* mask) {
  sigemptyset(mask);
  sigaddset(mask, SIGTERM);
  sigaddset(mask, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, mask, nullptr) != 0) {
    return Status::Internal("pthread_sigmask failed");
  }
  return Status::OK();
}

/// Waits for SIGTERM or SIGINT and returns the signal's name.
inline const char* WaitForDrainSignal(const sigset_t& mask) {
  int sig = 0;
  sigwait(&mask, &sig);
  return sig == SIGTERM ? "SIGTERM" : "SIGINT";
}

}  // namespace gir

#endif  // GIR_TOOLS_TOOL_UTIL_H_
