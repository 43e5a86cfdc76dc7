#include "src/util/atomic_file.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <string>

#include "src/util/byte_io.h"

namespace lps {

namespace {

std::string ParentOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t size) {
  // The temporary must be a sibling so the final rename stays within one
  // filesystem. Suffix with the pid so two processes publishing the same
  // path (e.g. a snapshot race during shutdown) cannot corrupt each
  // other's temporary; the rename itself is last-writer-wins either way.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(getpid()));
  const int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno(errno, "cannot open for writing", tmp);

  // Each failure is stated before the cleanup below can clobber errno.
  Status status = WriteAll(fd, data, size, tmp);
  if (status.ok() && fsync(fd) != 0) {
    status = Errno(errno, "fsync failed", tmp);
  }
  if (close(fd) != 0 && status.ok()) {
    status = Errno(errno, "close failed", tmp);
  }
  if (status.ok() && rename(tmp.c_str(), path.c_str()) != 0) {
    status = Errno(errno, "rename failed", path);
  }
  if (!status.ok()) {
    unlink(tmp.c_str());
    return status;
  }
  return SyncParentDirectory(path);
}

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  std::string prefix;
  size_t start = 0;
  if (path[0] == '/') {
    prefix = "/";
    start = 1;
  }
  while (start <= path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    if (slash > start) {
      prefix.append(path, start, slash - start);
      if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return Errno(errno, "mkdir failed", prefix);
      }
      prefix.push_back('/');
    }
    start = slash + 1;
  }
  struct stat st;
  if (stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("not a directory: " + path);
  }
  return Status::OK();
}

Status SyncParentDirectory(const std::string& path) {
  const std::string dir = ParentOf(path);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::OK();  // best-effort on exotic filesystems
  const int err = fsync(fd) != 0 ? errno : 0;
  close(fd);
  if (err != 0 && err != EINVAL && err != EROFS) {
    return Errno(err, "directory fsync failed", dir);
  }
  return Status::OK();
}

}  // namespace lps
