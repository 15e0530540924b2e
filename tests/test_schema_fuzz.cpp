// Deterministic mutation fuzz of the five toastcase schema parsers.
//
// Every checked-in artifact under bench/faultplans/, bench/schedules/ and
// bench/servespecs/ is mutated with seeded splitmix64 edits: a byte flip,
// delete or duplicate, or a number token replaced by a hostile literal
// (-1, 0, 1.5, 3e9, 1e308, "x", true, null).  Each mutant must either
// parse or throw std::runtime_error (a json::ParseError or a
// json::SchemaError); anything else, a crash or a sanitizer report is a
// failure.  A parsed schedule must re-parse from its canonical json() to
// the same hash().  The sanitizer build runs this suite through plain
// ctest, so an overflowing cast or a stray read in a parser fails it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/schedule.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "resilience/policy.hpp"
#include "serve/spec.hpp"
#include "tune/library.hpp"

namespace {

namespace fs = std::filesystem;
using toast::config::ScheduleConfig;

constexpr int kMutantsPerArtifact = 500;

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// [begin, end) of every number token outside a string literal.
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      std::size_t end = i + 1;
      while (end < text.size() &&
             std::string("0123456789.eE+-").find(text[end]) !=
                 std::string::npos) {
        ++end;
      }
      out.emplace_back(i, end);
      i = end - 1;
    }
  }
  return out;
}

/// One to three seeded edits; half of them replace a number token.
std::string mutate(std::string text, SplitMix64& rng) {
  static const char* const kHostile[] = {"-1",    "0",     "1.5",  "3e9",
                                         "1e308", "\"x\"", "true", "null"};
  const std::size_t edits = 1 + rng.below(3);
  for (std::size_t k = 0; k < edits && !text.empty(); ++k) {
    const std::size_t pos = rng.below(text.size());
    switch (rng.below(6)) {
      case 0:
        text[pos] = static_cast<char>(text[pos] ^ (1 << rng.below(8)));
        break;
      case 1:
        text.erase(pos, 1);
        break;
      case 2:
        text.insert(pos, 1, text[pos]);
        break;
      default: {
        const auto numbers = number_tokens(text);
        if (!numbers.empty()) {
          const auto [begin, end] = numbers[rng.below(numbers.size())];
          text.replace(begin, end - begin, kHostile[rng.below(8)]);
        }
      }
    }
  }
  return text;
}

void expect_round_trip(const ScheduleConfig& cfg) {
  EXPECT_EQ(ScheduleConfig::parse(cfg.json()).hash(), cfg.hash())
      << cfg.json();
}

/// Parse `text` with the parser of `schema` (the unmutated artifact's).
void parse_as(const std::string& schema, const std::string& text,
              const std::string& dir) {
  if (schema == "toastcase-fault-plan-v1") {
    toast::fault::FaultPlan::parse(text);
  } else if (schema == "toastcase-resilience-policy-v1") {
    toast::resilience::Policy::parse(text);
  } else if (schema == "toastcase-schedule-v1") {
    expect_round_trip(ScheduleConfig::parse(text));
  } else if (schema == "toastcase-schedule-library-v1") {
    const auto lib = toast::tune::ScheduleLibrary::parse(text, dir);
    for (const auto& e : lib.entries()) {
      expect_round_trip(e.schedule);
    }
  } else if (schema == "toastcase-serve-v1") {
    const auto spec = toast::serve::ServiceSpec::parse(text);
    for (const auto& job : spec.jobs) {
      expect_round_trip(job.schedule);
    }
  } else {
    FAIL() << "no parser for schema '" << schema << "'";
  }
}

std::vector<fs::path> artifacts() {
  std::vector<fs::path> out;
  for (const char* dir : {"faultplans", "schedules", "servespecs"}) {
    for (const auto& entry : fs::directory_iterator(
             fs::path(TOASTCASE_SOURCE_DIR) / "bench" / dir)) {
      if (entry.path().extension() == ".json") {
        out.push_back(entry.path());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SchemaFuzz, MutantsParseOrThrowStructuredErrors) {
  const std::vector<fs::path> files = artifacts();
  ASSERT_GE(files.size(), 8u);
  int parsed = 0;
  int rejected = 0;
  for (const fs::path& file : files) {
    const std::string original = read_file(file);
    const std::string schema =
        toast::obs::json::Value::parse(original).at("schema").string;
    const std::string dir = file.parent_path().string();
    // Every checked-in artifact parses as it stands.
    EXPECT_NO_THROW(parse_as(schema, original, dir)) << file;

    SplitMix64 rng{0xcbf29ce484222325ULL};  // FNV-1a of the file name
    for (const unsigned char c : file.filename().string()) {
      rng.state = (rng.state ^ c) * 0x100000001b3ULL;
    }
    for (int i = 0; i < kMutantsPerArtifact; ++i) {
      const std::string mutant = mutate(original, rng);
      try {
        parse_as(schema, mutant, dir);
        ++parsed;
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << file << " mutant " << i << " threw " << e.what()
                      << ":\n"
                      << mutant;
      }
    }
  }
  // Both outcomes occur: the mutations are neither all fatal nor all
  // harmless.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
