#include "src/model.h"

namespace perfbench {

const Version* NameModel::Highest(const std::string& name) const {
  auto it = names_.find(name);
  return it == names_.end() ? nullptr : &it->second.back();
}

void NameModel::Create(const std::string& name, std::uint64_t seed,
                       std::uint32_t size) {
  std::vector<Version>& versions = names_[name];
  const std::uint16_t keep = versions.empty() ? 0 : versions.back().keep;
  versions.push_back(Version{seed, size, keep});
  if (keep > 0 && versions.size() > keep) {
    versions.erase(versions.begin(), versions.end() - keep);
  }
}

void NameModel::SetKeep(const std::string& name, std::uint16_t keep) {
  auto it = names_.find(name);
  if (it == names_.end()) return;
  std::vector<Version>& versions = it->second;
  versions.back().keep = keep;
  if (keep > 0 && versions.size() > keep) {
    versions.erase(versions.begin(), versions.end() - keep);
  }
}

void NameModel::Delete(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) return;
  it->second.pop_back();
  if (it->second.empty()) names_.erase(it);
}

void NameModel::Rename(const std::string& from, const std::string& to) {
  auto it = names_.find(from);
  if (it == names_.end()) return;
  const Version moved = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) names_.erase(it);
  names_[to].push_back(moved);
}

void NameModel::Overwrite(const std::string& name, std::uint64_t seed) {
  auto it = names_.find(name);
  if (it != names_.end()) it->second.back().seed = seed;
}

void CheckFile(cedar::fs::FileSystem& fs, const std::string& name,
               const Version& expected, RunResult* result) {
  ++result->checks;
  auto handle = fs.Open(name);
  if (!handle.ok()) {
    result->Fail("read-back " + name + ": " + handle.status().ToString());
    return;
  }
  if (handle->byte_size != expected.size) {
    result->Fail("read-back " + name + ": size " +
                 std::to_string(handle->byte_size) + " expected " +
                 std::to_string(expected.size));
  } else {
    std::vector<std::uint8_t> bytes(expected.size);
    const cedar::Status read = fs.Read(handle.value(), 0, bytes);
    if (!read.ok()) {
      result->Fail("read-back " + name + ": " + read.ToString());
    } else if (!ContentsMatch(expected.seed, bytes)) {
      result->Fail("read-back " + name + ": bytes differ");
    }
  }
  (void)fs.Close(handle.value());
}

void CheckListing(const std::vector<cedar::fs::FileInfo>& listing,
                  const NameModel& model, const std::string& prefix,
                  RunResult* result) {
  ++result->checks;
  std::map<std::string, std::pair<std::size_t, std::uint64_t>> seen;
  for (const cedar::fs::FileInfo& info : listing) {
    auto& [count, size] = seen[info.name];
    ++count;
    size = info.byte_size;  // versions ascend; the last one is the highest
  }
  std::size_t expected_names = 0;
  for (auto it = model.names().lower_bound(prefix);
       it != model.names().end() && it->first.starts_with(prefix); ++it) {
    ++expected_names;
    auto found = seen.find(it->first);
    if (found == seen.end()) {
      result->Fail("list " + prefix + ": missing " + it->first);
      return;
    }
    if (found->second.first != it->second.size() ||
        found->second.second != it->second.back().size) {
      result->Fail("list " + prefix + ": " + it->first + " has " +
                   std::to_string(found->second.first) + " versions, size " +
                   std::to_string(found->second.second) + "; expected " +
                   std::to_string(it->second.size()) + ", " +
                   std::to_string(it->second.back().size));
      return;
    }
  }
  if (seen.size() != expected_names) {
    result->Fail("list " + prefix + ": " + std::to_string(seen.size()) +
                 " names, expected " + std::to_string(expected_names));
  }
}

bool ExpectFound(const cedar::Status& status, bool live, const char* op,
                 const std::string& name, RunResult* result) {
  ++result->checks;
  if (status.ok()) {
    if (!live) {
      result->Fail(std::string(op) + " " + name +
                   ": found a name the model holds no version of");
    }
    return true;
  }
  if (status.code() == cedar::ErrorCode::kNotFound && !live) {
    ++result->misses;
    return false;
  }
  result->Fail(std::string(op) + " " + name + ": " + status.ToString());
  return false;
}

}  // namespace perfbench
