// Shared helpers for the test suites.
#pragma once

#include <cstdlib>
#include <string>

namespace clmpi::testutil {

/// Scoped environment-variable override (nullptr unsets); restores the
/// previous value on destruction. Used to pin CLMPI_FIBER_WORKERS and
/// friends for the duration of one cluster run.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_{false};
  std::string old_;
};

/// Deadlock-watchdog budget for Cluster::Options::watchdog_seconds.
/// `CLMPI_TEST_WATCHDOG` (seconds, floating point) overrides the suite's
/// default — shorten it to make chaos failures surface fast, lengthen it on
/// slow machines. Non-positive or unparsable values fall back to `fallback`.
inline double watchdog_seconds(double fallback) {
  const char* env = std::getenv("CLMPI_TEST_WATCHDOG");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || v <= 0.0) return fallback;
  return v;
}

}  // namespace clmpi::testutil
