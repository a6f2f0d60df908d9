// The generator's model of the namespace it drives, and the checks that
// compare a file system's answers with it.
//
// A name holds a stack of versions (Cedar semantics): CreateFile pushes a
// version that inherits the keep count of the one below and prunes to it,
// DeleteFile pops the highest, Rename moves the highest onto the target.
// File contents are never stored: a version is (content seed, size), and
// the bytes are regenerated to compare.

#ifndef PERFBENCH_SRC_MODEL_H_
#define PERFBENCH_SRC_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/bench.h"
#include "src/fsapi/file_system.h"

namespace perfbench {

struct Version {
  std::uint64_t seed = 0;
  std::uint32_t size = 0;
  std::uint16_t keep = 0;
};

class NameModel {
 public:
  // Highest version of `name`, or null when it has none.
  const Version* Highest(const std::string& name) const;
  void Create(const std::string& name, std::uint64_t seed,
              std::uint32_t size);
  void SetKeep(const std::string& name, std::uint16_t keep);
  void Delete(const std::string& name);
  void Rename(const std::string& from, const std::string& to);
  void Overwrite(const std::string& name, std::uint64_t seed);

  const std::map<std::string, std::vector<Version>>& names() const {
    return names_;
  }

 private:
  std::map<std::string, std::vector<Version>> names_;  // empty stacks erased
};

// Reads `name` and compares size and bytes with `expected`.
void CheckFile(cedar::fs::FileSystem& fs, const std::string& name,
               const Version& expected, RunResult* result);

// Compares a List(prefix) answer with the model: the same names, each with
// as many versions as the model holds and the highest version's size.
void CheckListing(const std::vector<cedar::fs::FileInfo>& listing,
                  const NameModel& model, const std::string& prefix,
                  RunResult* result);

// Status classification for a call whose name may be absent in the model.
// Returns true when the call succeeded. An expected kNotFound counts as a
// miss; any other disagreement is a failure.
bool ExpectFound(const cedar::Status& status, bool live, const char* op,
                 const std::string& name, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MODEL_H_
