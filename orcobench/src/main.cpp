// orcobench — one workload per process against the orco library.
//
//   orcobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir dir] [--span-file path]
//
// Prints one JSON document on stdout: gates, attempted/failed counts, the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run),
// and workload detail. run.py turns it into the benchmark's result line.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>

#include "harness.h"
#include "tensor/backend.h"

namespace {

orcobench::Options parse(int argc, char** argv) {
  orcobench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::stoull(value);
    else if (arg == "--seconds") o.seconds = std::stod(value);
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--work-dir") o.work_dir = value;
    else if (arg == "--span-file") o.span_file = value;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const orcobench::Options options = parse(argc, argv);
    // Repository default kernel backend, independent of ORCO_BACKEND.
    orco::tensor::set_backend("simd");
    orcobench::Result result;
    if (options.workload == "serve_closed_gtsrb") {
      orcobench::run_serve_closed_gtsrb(options, result);
    } else if (options.workload == "paper_online_train") {
      orcobench::run_paper_online_train(options, result);
    } else if (options.workload == "fleet_zipf_churn") {
      orcobench::run_fleet_zipf_churn(options, result);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    if (options.trace) {
      const auto spans = orcobench::Tracer::instance().collect();
      orcobench::report_span_shares(result, spans);
      if (!options.span_file.empty()) {
        result.check("span_file_written",
                     orcobench::write_span_file(options.span_file, spans));
      }
    } else {
      result.e2e("peak_rss_mb", orcobench::peak_rss_mb(), "MiB");
    }
    std::cout << result.to_json(options) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "orcobench: " << e.what() << "\n";
    return 2;
  }
}
