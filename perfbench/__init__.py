"""Crawl/convert benchmark harness for warcit_ray (see README.md)."""
