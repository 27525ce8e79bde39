"""Package b/pkg: its module shares the dotted name pkg.mod with a/pkg."""
