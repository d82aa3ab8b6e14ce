#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace vmp::obs {

namespace {

/// Family name = metric name with any label set stripped.
std::string family_of(const std::string& name) {
  const auto brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Inner label body of a metric name ("a=\"b\",c=\"d\"") or "" when plain.
std::string labels_of(const std::string& name) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) return "";
  auto body = name.substr(brace + 1);
  if (!body.empty() && body.back() == '}') body.pop_back();
  return body;
}

/// "fam_sum{labels}" / "fam_sum" — suffixed series name that keeps the label
/// set attached to the family, as Prometheus requires for histograms.
std::string suffixed(const std::string& family, const std::string& labels,
                     const char* suffix) {
  std::string out = family + suffix;
  if (!labels.empty()) out += "{" + labels + "}";
  return out;
}

void write_double(std::ostream& out, double value) {
  std::ostringstream text;
  text.precision(12);
  text << value;
  out << text.str();
}

/// HELP text escaping per the exposition grammar: backslash and newline.
std::string escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string labeled(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(family);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  out += '}';
  return out;
}

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : counts_(bins + 1, 0) {
  if (!(lo < hi) || bins == 0)
    throw std::invalid_argument("HistogramMetric: need lo < hi and bins >= 1");
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t i = 1; i <= bins; ++i)
    upper_edges_.push_back(lo + width * static_cast<double>(i));
}

void HistogramMetric::observe(double value) {
  // The first edge >= value; one past the last edge is the +Inf-only slot.
  const auto bucket =
      std::lower_bound(upper_edges_.begin(), upper_edges_.end(), value) -
      upper_edges_.begin();
  std::lock_guard lock(mutex_);
  ++counts_[static_cast<std::size_t>(bucket)];
  sum_ += value;
}

std::uint64_t HistogramMetric::count() const {
  std::lock_guard lock(mutex_);
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

double HistogramMetric::sum() const {
  std::lock_guard lock(mutex_);
  return sum_;
}

std::vector<std::uint64_t> HistogramMetric::bucket_counts() const {
  std::lock_guard lock(mutex_);
  return counts_;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(const std::string& name,
                                                   const std::string& help,
                                                   Kind kind) {
  const auto [family_it, family_inserted] =
      family_kinds_.try_emplace(family_of(name), kind);
  if (!family_inserted && family_it->second != kind)
    throw std::invalid_argument(
        "MetricsRegistry: family '" + family_it->first +
        "' already registered as another kind");
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) it->second.help = help;
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry& entry = entry_for(name, help, Kind::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry& entry = entry_for(name, help, Kind::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            const std::string& help, double lo,
                                            double hi, std::size_t bins) {
  // Labelled histogram names are allowed; the exporter merges the reserved
  // 'le' label into the series' own label set. A literal le= in the name
  // would collide with that merge, so only that label is rejected.
  if (labels_of(name).find("le=") != std::string::npos)
    throw std::invalid_argument(
        "MetricsRegistry: histogram labels cannot include the reserved 'le' "
        "label: " +
        name);
  std::lock_guard lock(mutex_);
  Entry& entry = entry_for(name, help, Kind::kHistogram);
  if (!entry.histogram)
    entry.histogram = std::make_unique<HistogramMetric>(lo, hi, bins);
  return *entry.histogram;
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard lock(mutex_);
  // Group series under their family first: entries_ is name-sorted, but an
  // unrelated name can sort between a family's plain and labeled series
  // ('_' < '{'), and HELP/TYPE must appear exactly once per family, before
  // its first sample.
  std::map<std::string, std::vector<std::pair<const std::string*,
                                              const Entry*>>>
      families;
  for (const auto& [name, entry] : entries_)
    families[family_of(name)].emplace_back(&name, &entry);

  std::ostringstream out;
  for (const auto& [family, series] : families) {
    const Entry& first = *series.front().second;
    const char* kind = first.counter     ? "counter"
                       : first.gauge     ? "gauge"
                       : first.histogram ? "histogram"
                                         : "untyped";
    out << "# HELP " << family << ' ' << escape_help(first.help) << '\n';
    out << "# TYPE " << family << ' ' << kind << '\n';
    for (const auto& [name_ptr, entry_ptr] : series) {
      const std::string& name = *name_ptr;
      const Entry& entry = *entry_ptr;
      if (entry.counter) {
        out << name << ' ' << entry.counter->value() << '\n';
      } else if (entry.gauge) {
        out << name << ' ';
        write_double(out, entry.gauge->value());
        out << '\n';
      } else if (entry.histogram) {
        // The _bucket/_sum/_count suffixes attach to the family name, and
        // the series' own labels merge ahead of the reserved 'le' bucket
        // label.
        const std::string labels = labels_of(name);
        const std::string le_prefix = labels.empty() ? "" : labels + ",";
        const std::vector<double>& edges = entry.histogram->upper_edges();
        const std::vector<std::uint64_t> counts =
            entry.histogram->bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < edges.size(); ++i) {
          cumulative += counts[i];
          out << family << "_bucket{" << le_prefix << "le=\"";
          write_double(out, edges[i]);
          out << "\"} " << cumulative << '\n';
        }
        cumulative += counts.back();
        out << family << "_bucket{" << le_prefix << "le=\"+Inf\"} "
            << cumulative << '\n';
        out << suffixed(family, labels, "_sum") << ' ';
        write_double(out, entry.histogram->sum());
        out << '\n';
        out << suffixed(family, labels, "_count") << ' ' << cumulative
            << '\n';
      }
    }
  }
  return out.str();
}

void MetricsRegistry::write_prometheus(
    const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out)
    throw std::runtime_error("MetricsRegistry: cannot open for write: " +
                             path.string());
  out << to_prometheus();
  if (!out)
    throw std::runtime_error("MetricsRegistry: write failed: " +
                             path.string());
}

}  // namespace vmp::obs
