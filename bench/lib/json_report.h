// Machine-readable bench output: every bench_* binary accepts
// `--json <path>` and writes a {metric: {paper, measured, ratio}} object so
// CI and EXPERIMENTS.md comparisons can diff runs without scraping stdout.
#ifndef BENCH_LIB_JSON_REPORT_H_
#define BENCH_LIB_JSON_REPORT_H_

#include <map>
#include <string>

namespace bench {

class JsonReport {
 public:
  // `paper` is the value the source paper reports for this metric; pass 0
  // when the paper gives no number (the ratio is then omitted).
  void Add(const std::string& name, double measured, double paper = 0.0);

  // Deterministic (sorted keys, fixed precision) JSON object.
  std::string ToJson() const;
  bool WriteFile(const std::string& path) const;

  bool empty() const { return rows_.empty(); }

 private:
  struct Row {
    double measured = 0.0;
    double paper = 0.0;
  };
  std::map<std::string, Row> rows_;
};

// Removes `flag <value>` or `flag=<value>` from argv and returns the value,
// or "" when the flag is absent.
std::string ExtractFlag(int* argc, char** argv, const std::string& flag);

inline std::string ExtractJsonPath(int* argc, char** argv) {
  return ExtractFlag(argc, argv, "--json");
}

}  // namespace bench

#endif  // BENCH_LIB_JSON_REPORT_H_
