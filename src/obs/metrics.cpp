#include "obs/metrics.hpp"

#include <cmath>
#include <fstream>
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

void write_double(std::ostream& out, double value, int precision = 12) {
  std::ostringstream text;
  text.precision(precision);
  text << value;
  out << text.str();
}

/// True when a label body ("a=\"x\",le=\"1\"") has the key `key`. Values
/// are skipped quote to quote over their escapes, so neither a key that
/// ends in `key` nor a value holding "key=" matches.
bool has_label_key(std::string_view body, std::string_view key) {
  for (std::size_t i = 0; i < body.size();) {
    const std::size_t eq = body.find('=', i);
    if (eq == std::string_view::npos) return false;
    if (body.substr(i, eq - i) == key) return true;
    for (i = eq + 2; i < body.size() && body[i] != '"'; ++i)
      if (body[i] == '\\') ++i;
    i += 2;  // the closing quote and the comma.
  }
  return false;
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

void HistogramMetric::observe(double value) {
  std::lock_guard lock(mutex_);
  sketch_.record(value);
}

util::QuantileSketch HistogramMetric::snapshot() const {
  std::lock_guard lock(mutex_);
  return sketch_;
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
                                            const std::string& help) {
  // Labelled histogram names are allowed; the exporter merges the reserved
  // 'le' label into the series' own label set. A literal le label in the
  // name would collide with that merge, so only that label is rejected.
  if (has_label_key(labels_of(name), "le"))
    throw std::invalid_argument(
        "MetricsRegistry: histogram labels cannot include the reserved 'le' "
        "label: " +
        name);
  std::lock_guard lock(mutex_);
  Entry& entry = entry_for(name, help, Kind::kHistogram);
  if (!entry.histogram) entry.histogram = std::make_unique<HistogramMetric>();
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
        const util::QuantileSketch sketch = entry.histogram->snapshot();
        for (int k = kLadderMinExponent; k <= kLadderMaxExponent; ++k) {
          // 17 significant digits spell each 2^k (k >= −24) exactly, so a
          // parser reads back the bucket edge itself.
          out << family << "_bucket{" << le_prefix << "le=\"";
          write_double(out, std::ldexp(1.0, k), 17);
          out << "\"} " << sketch.count_at_or_below_pow2(k) << '\n';
        }
        out << family << "_bucket{" << le_prefix << "le=\"+Inf\"} "
            << sketch.count() << '\n';
        out << suffixed(family, labels, "_sum") << ' ';
        write_double(out, sketch.sum());
        out << '\n';
        out << suffixed(family, labels, "_count") << ' ' << sketch.count()
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
